"""Unit, property and round-trip coverage of the columnar graph topology.

:class:`~repro.kg.GraphTopology` — CSR adjacency over string-sorted
entity ordinals — must answer every traversal the scalar walks answer,
byte for byte.  These tests pin the structural invariants (offset
monotonicity, row sort order), prove kernel equivalence on fixed and
hypothesis-generated random graphs, exercise the per-epoch memo (cache
hits, stale-epoch rebuilds after mutation) and round-trip the arrays
through the segment codec.  The same graphs check the feature tables'
type filter (:meth:`~repro.features.columnar.ColumnarFeatureTables.of_type`)
against the graph's member sets.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import RandomKGConfig, build_random_kg
from repro.features import SemanticFeatureIndex
from repro.features.columnar import columnar_tables
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
from repro.storage.kgstore import restore_graph_topology


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

    def test_csr_offsets_are_monotone_and_complete(self, random_graph, topology):
        for offsets, values in (
            (topology.out_offsets, topology.out_targets),
            (topology.in_offsets, topology.in_sources),
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
def test_property_type_filter_equals_member_sets(kg: KnowledgeGraph):
    tables = columnar_tables(SemanticFeatureIndex.build(kg).snapshot())
    candidates = tables.entity_ordinals(sorted(kg.entities(), reverse=True))
    for type_id in [*kg.types(), "ex:NoSuchType"]:
        members = kg.entities_of_type(type_id)
        kept = candidates[tables.of_type(candidates, type_id)]
        assert [tables.entity_ids[o] for o in kept.tolist()] == [
            tables.entity_ids[o] for o in candidates.tolist() if tables.entity_ids[o] in members
        ]


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
        connecting_entities_scalar(kg, probe, probe)
        assert traversal_stats(kg).bfs_queries == 0
        assert traversal_stats(kg).connect_queries == 0


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
        restored = restore_graph_topology(random_graph, view)
        assert restored.entity_ids == topology.entity_ids
        assert restored.predicates == topology.predicates
        probe = topology.ordinal_of[_probes(random_graph, count=1)[0]]
        reached_a, depths_a = topology.bfs_reachable_ords(probe, 2)
        reached_b, depths_b = restored.bfs_reachable_ords(probe, 2)
        assert np.array_equal(reached_a, reached_b)
        assert np.array_equal(depths_a, depths_b)
        left, right = (topology.ordinal_of[e] for e in _probes(random_graph, count=2))
        for kernel_a, kernel_b in zip(
            topology.connecting_ords(left, right), restored.connecting_ords(left, right)
        ):
            assert np.array_equal(kernel_a, kernel_b)

    def test_segment_carries_adjacency_only(self, topology):
        view = SegmentView(_encode_to_buffer(topology), name="unit")
        assert set(view.manifest) == {
            "uid", "epoch", "kind", "num_entities", "entity_ids", "predicates",
            "out_offsets", "out_targets", "out_preds", "in_offsets", "in_sources", "in_preds",
        }

    def test_wrong_kind_is_rejected(self, random_graph, topology):
        buf = _encode_to_buffer(topology)
        view = SegmentView(buf, name="unit")
        view._manifest = dict(view._manifest, kind="feature-tables")
        with pytest.raises(SnapshotUnavailable, match="graph topology"):
            restore_graph_topology(random_graph, view)

    def test_flipped_byte_fails_the_array_crc(self, topology):
        """The disk tier attaches with ``verify=True`` — a flipped array
        byte must surface as SnapshotUnavailable, not silent garbage."""
        buf = _encode_to_buffer(topology)
        arrays_base = int.from_bytes(bytes(buf[24:32]), "little")
        buf[arrays_base] ^= 0xFF
        with pytest.raises(SnapshotUnavailable, match="checksum"):
            SegmentView(buf, name="unit", verify=True)

    def test_from_arrays_matches_from_graph(self, topology):
        arrays = ("out_offsets", "out_targets", "out_preds", "in_offsets", "in_sources", "in_preds")
        clone = GraphTopology.from_arrays(
            epoch=topology.epoch,
            entity_ids=topology.entity_ids,
            predicates=topology.predicates,
            **{name: getattr(topology, name) for name in arrays},
        )
        assert clone.ordinal_of == topology.ordinal_of
        assert clone.predicate_ord == topology.predicate_ord
        for name in arrays:
            assert getattr(clone, name) is getattr(topology, name)
