"""Unit, property and round-trip coverage of the columnar graph topology.

The PR 10 contract: :class:`~repro.kg.GraphTopology` — CSR adjacency over
string-sorted entity ordinals plus the interval-encoded type containment
forest — must answer every traversal the scalar walks answer, byte for
byte.  These tests pin the structural invariants (offset monotonicity,
row sort order, interval nesting, subtree-union == member-set), prove
kernel equivalence on fixed and hypothesis-generated random graphs,
exercise the per-epoch memo (cache hits, stale-epoch rebuilds after
mutation) and round-trip the arrays through the segment codec.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import RandomKGConfig, build_random_kg
from repro.kg import (
    GraphTopology,
    KnowledgeGraph,
    bfs_reachable,
    bfs_reachable_scalar,
    connecting_entities,
    connecting_entities_scalar,
    graph_topology,
    install_topology,
    topology_counters,
    traversal_stats,
)
from repro.storage import SegmentBuilder, SegmentView, SnapshotUnavailable
from repro.storage.codec import encode_graph_topology


@pytest.fixture(scope="module")
def random_graph():
    return build_random_kg(RandomKGConfig(num_entities=120, seed=11))


@pytest.fixture(scope="module")
def topology(random_graph):
    return graph_topology(random_graph)


def _probes(graph, count=8):
    entities = sorted(graph.entities())
    step = max(1, len(entities) // count)
    return entities[::step][:count]


class TestStructuralInvariants:
    def test_entity_ordinals_are_string_sorted(self, topology):
        assert topology.entity_ids == sorted(topology.entity_ids)
        assert topology.predicates == sorted(topology.predicates)
        assert topology.type_ids == sorted(topology.type_ids)

    def test_csr_offsets_are_monotone_and_complete(self, random_graph, topology):
        for offsets, values in (
            (topology.out_offsets, topology.out_targets),
            (topology.in_offsets, topology.in_sources),
            (topology.type_offsets, topology.type_members),
        ):
            assert offsets[0] == 0
            assert offsets[-1] == len(values)
            assert np.all(np.diff(offsets) >= 0)
        assert len(topology.out_offsets) == topology.num_entities + 1
        assert len(topology.out_targets) == len(topology.out_preds)
        assert len(topology.in_sources) == len(topology.in_preds)

    def test_adjacency_rows_sorted_by_neighbour_then_predicate(self, topology):
        for offsets, neighbours, predicates in (
            (topology.out_offsets, topology.out_targets, topology.out_preds),
            (topology.in_offsets, topology.in_sources, topology.in_preds),
        ):
            for ordinal in range(topology.num_entities):
                lo, hi = int(offsets[ordinal]), int(offsets[ordinal + 1])
                rows = list(zip(neighbours[lo:hi].tolist(), predicates[lo:hi].tolist()))
                assert rows == sorted(rows)

    def test_adjacency_matches_graph_edges(self, random_graph, topology):
        for entity_id in _probes(random_graph):
            ordinal = topology.ordinal_of[entity_id]
            lo, hi = int(topology.out_offsets[ordinal]), int(topology.out_offsets[ordinal + 1])
            decoded = sorted(
                (topology.predicates[p], topology.entity_ids[t])
                for t, p in zip(
                    topology.out_targets[lo:hi].tolist(),
                    topology.out_preds[lo:hi].tolist(),
                )
            )
            assert decoded == sorted(random_graph.outgoing(entity_id))

    def test_interval_nesting(self, topology):
        """Child intervals sit strictly inside their parent's."""
        for ordinal, parent in enumerate(topology.type_parents.tolist()):
            if parent < 0:
                continue
            assert topology.type_pre[parent] < topology.type_pre[ordinal]
            assert topology.type_post[ordinal] < topology.type_post[parent]

    def test_types_under_is_the_pre_order_slice(self, topology):
        """The interval predicate and the slice agree for every root."""
        pre, post = topology.type_pre, topology.type_post
        for ordinal in range(len(topology.type_ids)):
            by_predicate = {
                other
                for other in range(len(topology.type_ids))
                if pre[ordinal] <= pre[other] and post[other] <= post[ordinal]
            }
            assert set(topology.types_under(ordinal).tolist()) == by_predicate

    def test_subtree_union_equals_member_set(self, random_graph, topology):
        """The containment construction's load-bearing property: the
        union of every descendant's members is the type's own member row
        — what keeps the interval filter byte-identical to the scalar
        ``entity_id in members`` probe."""
        for type_id in topology.type_ids:
            expected = sorted(
                topology.ordinal_of[m] for m in random_graph.entities_of_type(type_id)
            )
            assert topology.entities_under_id(type_id).tolist() == expected

    def test_ordinals_of_flags_unknown_ids(self, topology):
        known_id = topology.entity_ids[3]
        ordinals, known = topology.ordinals_of([known_id, "ex:not_a_thing", ""])
        assert known.tolist() == [True, False, False]
        assert ordinals[0] == 3
        empty_ordinals, empty_known = topology.ordinals_of([])
        assert empty_ordinals.size == 0 and empty_known.size == 0

    def test_unknown_type_yields_empty_members(self, topology):
        assert topology.entities_under_id("ex:NoSuchType").size == 0


class TestKernelEquivalence:
    """Vectorized kernels vs the scalar walks, on a fixed random KG."""

    @pytest.mark.parametrize("max_hops", [0, 1, 2, 3])
    def test_bfs_matches_scalar(self, random_graph, max_hops):
        for probe in _probes(random_graph):
            assert bfs_reachable(random_graph, probe, max_hops=max_hops) == (
                bfs_reachable_scalar(random_graph, probe, max_hops=max_hops)
            )

    def test_connecting_matches_scalar(self, random_graph):
        probes = _probes(random_graph, count=6)
        for left in probes[:3]:
            for right in probes[3:]:
                assert connecting_entities(random_graph, left, right) == (
                    connecting_entities_scalar(random_graph, left, right)
                )

    def test_connecting_self_pair(self, random_graph):
        probe = _probes(random_graph, count=1)[0]
        assert connecting_entities(random_graph, probe, probe) == (
            connecting_entities_scalar(random_graph, probe, probe)
        )

    def test_unknown_entity_raises_like_scalar(self, random_graph):
        with pytest.raises(Exception):
            bfs_reachable(random_graph, "ex:not_a_thing")


# --------------------------------------------------------------------------- #
# Hypothesis property tests
# --------------------------------------------------------------------------- #
identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).map(lambda s: f"ex:{s}")
predicates = st.sampled_from(["ex:p1", "ex:p2", "ex:p3"])
edge_triples = st.tuples(identifiers, predicates, identifiers).filter(lambda t: t[0] != t[2])


@st.composite
def small_graphs(draw) -> KnowledgeGraph:
    kg = KnowledgeGraph("topo-prop")
    for subject, predicate, obj in draw(st.lists(edge_triples, min_size=1, max_size=40)):
        kg.add(subject, predicate, obj)
    types = ["ex:TypeA", "ex:TypeB", "ex:TypeC", "ex:TypeD"]
    for index, entity in enumerate(sorted(kg.entities())):
        kg.add_type(entity, types[index % len(types)])
        if index % 3 == 0:  # overlapping second type → non-trivial containment
            kg.add_type(entity, types[(index + 1) % len(types)])
    return kg


@given(small_graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_property_bfs_equivalence(kg: KnowledgeGraph, max_hops: int):
    for probe in sorted(kg.entities())[:4]:
        assert bfs_reachable(kg, probe, max_hops=max_hops) == (
            bfs_reachable_scalar(kg, probe, max_hops=max_hops)
        )


@given(small_graphs())
@settings(max_examples=30, deadline=None)
def test_property_connecting_equivalence(kg: KnowledgeGraph):
    probes = sorted(kg.entities())[:4]
    for left in probes:
        for right in probes:
            assert connecting_entities(kg, left, right) == (
                connecting_entities_scalar(kg, left, right)
            )


@given(small_graphs())
@settings(max_examples=30, deadline=None)
def test_property_interval_filter_equals_member_sets(kg: KnowledgeGraph):
    topology = graph_topology(kg)
    for type_id in kg.types():
        expected = sorted(topology.ordinal_of[m] for m in kg.entities_of_type(type_id))
        assert topology.entities_under_id(type_id).tolist() == expected


# --------------------------------------------------------------------------- #
# Memoisation and telemetry
# --------------------------------------------------------------------------- #
class TestMemoAndCounters:
    def test_same_epoch_is_a_cache_hit(self):
        kg = build_random_kg(RandomKGConfig(num_entities=40, seed=3))
        first = graph_topology(kg)
        counters = topology_counters(kg)
        rebuilds = counters.rebuilds
        hits = counters.cache_hits
        assert graph_topology(kg) is first
        assert counters.rebuilds == rebuilds
        assert counters.cache_hits == hits + 1

    def test_mutation_triggers_rebuild_with_fresh_edges(self):
        """Stale-epoch regression: a graph mutation must invalidate the
        memo, and the rebuilt topology must see the new edge."""
        kg = build_random_kg(RandomKGConfig(num_entities=40, seed=3))
        first = graph_topology(kg)
        probe = sorted(kg.entities())[0]
        kg.add_label("ex:pr10_fresh", "Fresh Entity")
        kg.add(probe, "ex:linked_to", "ex:pr10_fresh")
        second = graph_topology(kg)
        assert second is not first
        assert second.epoch == kg.epoch
        assert "ex:pr10_fresh" in second.ordinal_of
        assert bfs_reachable(kg, probe, max_hops=1) == (
            bfs_reachable_scalar(kg, probe, max_hops=1)
        )
        assert topology_counters(kg).rebuilds == 2

    def test_install_topology_rejects_stale_epochs(self):
        kg = build_random_kg(RandomKGConfig(num_entities=40, seed=3))
        stale = graph_topology(kg)
        kg.add("ex:a_subject", "ex:p", "ex:an_object")
        install_topology(kg, stale)  # silently ignored: epoch moved on
        assert graph_topology(kg) is not stale

    def test_traversal_stats_freeze_the_counters(self):
        kg = build_random_kg(RandomKGConfig(num_entities=40, seed=5))
        probe = sorted(kg.entities())[0]
        bfs_reachable(kg, probe, max_hops=2)
        stats = traversal_stats(kg)
        assert stats.bfs_queries == 1
        assert stats.rebuilds == 1
        assert stats.frontier_entities >= 1
        assert stats.as_dict()["bfs_queries"] == 1

    def test_scalar_arms_leave_kernel_counters_untouched(self):
        kg = build_random_kg(RandomKGConfig(num_entities=40, seed=7))
        probe = sorted(kg.entities())[0]
        bfs_reachable_scalar(kg, probe, max_hops=2)
        bfs_reachable(kg, probe, max_hops=2, topology=False)
        assert traversal_stats(kg).bfs_queries == 0


# --------------------------------------------------------------------------- #
# Segment codec round-trips
# --------------------------------------------------------------------------- #
def _encode_to_buffer(topology, uid=7):
    manifest, builder = encode_graph_topology(
        SimpleNamespace(uid=uid, epoch=topology.epoch), topology
    )
    encoded = SegmentBuilder.encode_manifest(manifest)
    total, _ = builder.total_size(encoded)
    buf = bytearray(total)
    builder.write_into(buf, encoded)
    return buf


class TestSegmentRoundTrip:
    def test_codec_round_trip_preserves_every_kernel(self, random_graph, topology):
        buf = _encode_to_buffer(topology)
        view = SegmentView(buf, name="unit", expected_uid=7, expected_epoch=topology.epoch)
        restored = view.graph_topology()
        assert restored.entity_ids == topology.entity_ids
        assert restored.predicates == topology.predicates
        assert restored.type_ids == topology.type_ids
        probe = topology.ordinal_of[_probes(random_graph, count=1)[0]]
        reached_a, depths_a = topology.bfs_reachable_ords(probe, 2)
        reached_b, depths_b = restored.bfs_reachable_ords(probe, 2)
        assert np.array_equal(reached_a, reached_b)
        assert np.array_equal(depths_a, depths_b)
        for type_id in topology.type_ids[:4]:
            assert np.array_equal(
                restored.entities_under_id(type_id), topology.entities_under_id(type_id)
            )

    def test_wrong_kind_is_rejected(self, topology):
        buf = _encode_to_buffer(topology)
        view = SegmentView(buf, name="unit")
        view._manifest = dict(view._manifest, kind="feature-tables")
        with pytest.raises(SnapshotUnavailable, match="graph topology"):
            view.graph_topology()

    def test_flipped_byte_fails_the_array_crc(self, topology):
        """The disk tier attaches with ``verify=True`` — a flipped array
        byte must surface as SnapshotUnavailable, not silent garbage."""
        buf = _encode_to_buffer(topology)
        arrays_base = int.from_bytes(bytes(buf[24:32]), "little")
        buf[arrays_base] ^= 0xFF
        with pytest.raises(SnapshotUnavailable, match="checksum"):
            SegmentView(buf, name="unit", verify=True)

    def test_from_arrays_matches_from_graph(self, topology):
        clone = GraphTopology.from_arrays(
            epoch=topology.epoch,
            entity_ids=topology.entity_ids,
            predicates=topology.predicates,
            type_ids=topology.type_ids,
            out_offsets=topology.out_offsets,
            out_targets=topology.out_targets,
            out_preds=topology.out_preds,
            in_offsets=topology.in_offsets,
            in_sources=topology.in_sources,
            in_preds=topology.in_preds,
            type_offsets=topology.type_offsets,
            type_members=topology.type_members,
            type_parents=topology.type_parents,
            type_pre=topology.type_pre,
            type_post=topology.type_post,
            pre_order=topology.pre_order,
            subtree_sizes=topology.subtree_sizes,
        )
        assert clone.ordinal_of == topology.ordinal_of
        assert np.array_equal(clone._pre_positions, topology._pre_positions)
