"""Unit, property and round-trip coverage of the columnar graph topology.

:class:`~repro.kg.GraphTopology` — the one edge CSR of an epoch, the
holder rows of every feature anchored at an entity — must answer every
traversal the scalar walks answer, byte for byte.  These tests pin the
structural invariants (offset monotonicity, anchored rows), prove
kernel equivalence on fixed and hypothesis-generated random graphs,
exercise the per-epoch memo (cache hits, stale-epoch rebuilds after
mutation) and round-trip the CSR through the feature-tables segment.  The same graphs check the feature tables'
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
from repro.storage.codec import encode_feature_tables
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

    def test_csr_offsets_are_monotone_and_complete(self, topology):
        for offsets, values, rows in (
            (topology.holder_offsets, topology.holder_ordinals, topology.num_features),
            (topology.anchor_offsets, topology.holder_ordinals, topology.num_entities),
        ):
            assert offsets.shape == (rows + 1,)
            assert offsets[0] == 0
            assert offsets[-1] == len(values)
            assert np.all(np.diff(offsets) >= 0)
        assert np.all(np.diff(topology.feature_codes) > 0)

    def test_anchored_rows_are_both_directions_edges(self, random_graph, topology):
        for entity_id in _probes(random_graph):
            ordinal = topology.ordinal_of[entity_id]
            holders, parts = topology._anchored(ordinal)
            decoded = sorted(
                (topology.predicates[part >> 1], part & 1, topology.entity_ids[holder])
                for holder, part in zip(holders.tolist(), parts.tolist())
            )
            assert decoded == sorted(
                [(p, 1, target) for p, target in random_graph.outgoing(entity_id)]
                + [(p, 0, source) for p, source in random_graph.incoming(entity_id)]
            )


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
def _encode_to_buffer(graph, uid=7):
    tables = columnar_tables(SemanticFeatureIndex.build(graph).snapshot())
    manifest, builder = encode_feature_tables(
        SimpleNamespace(uid=uid, epoch=tables.epoch), tables
    )
    encoded = SegmentBuilder.encode_manifest(manifest)
    total, _ = builder.total_size(encoded)
    buf = bytearray(total)
    builder.write_into(buf, encoded)
    return buf


class TestSegmentRoundTrip:
    def test_codec_round_trip_preserves_every_kernel(self, random_graph, topology):
        buf = _encode_to_buffer(random_graph)
        view = SegmentView(buf, name="unit", expected_uid=7, expected_epoch=topology.epoch)
        restored = restore_graph_topology(random_graph, view)
        assert restored.entity_ids == topology.entity_ids
        assert restored.predicates == topology.predicates
        assert restored._columns is random_graph.columns.epoch(len(random_graph))
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

    def test_a_segment_of_another_epoch_is_rejected(self, random_graph):
        graph = random_graph.copy()
        buf = _encode_to_buffer(graph)
        graph.add("ex:a_subject", "ex:p", "ex:an_object")
        with pytest.raises(SnapshotUnavailable, match="epoch"):
            restore_graph_topology(graph, SegmentView(buf, name="unit"))

    def test_flipped_byte_fails_the_array_crc(self, random_graph):
        """The disk tier attaches with ``verify=True`` — a flipped array
        byte must surface as SnapshotUnavailable, not silent garbage."""
        buf = _encode_to_buffer(random_graph)
        arrays_base = int.from_bytes(bytes(buf[24:32]), "little")
        buf[arrays_base] ^= 0xFF
        with pytest.raises(SnapshotUnavailable, match="checksum"):
            SegmentView(buf, name="unit", verify=True)

    def test_constructor_matches_from_graph(self, topology):
        arrays = ("feature_codes", "holder_offsets", "holder_ordinals")
        clone = GraphTopology(
            topology.epoch,
            topology.entity_ids,
            topology.predicates,
            *(getattr(topology, name) for name in arrays),
        )
        assert clone.ordinal_of == topology.ordinal_of
        for name in arrays:
            assert getattr(clone, name) is getattr(topology, name)
        for name in ("anchor_features", "anchor_offsets"):
            assert np.array_equal(getattr(clone, name), getattr(topology, name))
