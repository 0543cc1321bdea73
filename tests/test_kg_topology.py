"""Unit, property and round-trip coverage of the columnar graph topology.

:class:`~repro.kg.GraphTopology` is the one edge CSR of an epoch, the
holder rows of every feature anchored at an entity.  These tests pin the
structural invariants (offset monotonicity, anchored rows that are the
graph's edges in both directions), exercise the per-epoch memo (cache
hits, stale-epoch rebuilds after mutation) and round-trip the CSR
through the feature-tables segment.  The same graphs check the feature tables'
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
        assert_anchored_rows_are_the_edges(random_graph, topology, _probes(random_graph))


def assert_anchored_rows_are_the_edges(graph, topology, entities) -> None:
    for entity_id in entities:
        holders, parts = topology._anchored(topology.ordinal_of[entity_id])
        decoded = sorted(
            (topology.predicates[part >> 1], part & 1, topology.entity_ids[holder])
            for holder, part in zip(holders.tolist(), parts.tolist())
        )
        assert decoded == sorted(
            [(p, 1, target) for p, target in graph.outgoing(entity_id)]
            + [(p, 0, source) for p, source in graph.incoming(entity_id)]
        ), entity_id


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


@given(small_graphs())
@settings(max_examples=30, deadline=None)
def test_property_anchored_rows_are_the_edges(kg: KnowledgeGraph):
    assert_anchored_rows_are_the_edges(kg, graph_topology(kg), sorted(kg.entities()))


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
        assert topology_counters(kg).rebuilds == 2
        holders, parts = second._anchored(second.ordinal_of["ex:pr10_fresh"])
        assert [
            (second.entity_ids[holder], second.predicates[part >> 1], part & 1)
            for holder, part in zip(holders.tolist(), parts.tolist())
        ] == [(probe, "ex:linked_to", 0)]

    def test_install_topology_rejects_stale_epochs(self):
        kg = build_random_kg(RandomKGConfig(num_entities=40, seed=3))
        stale = graph_topology(kg)
        kg.add("ex:a_subject", "ex:p", "ex:an_object")
        install_topology(kg, stale)  # silently ignored: epoch moved on
        assert graph_topology(kg) is not stale

    def test_traversal_stats_freeze_the_counters(self):
        kg = build_random_kg(RandomKGConfig(num_entities=40, seed=5))
        graph_topology(kg)
        graph_topology(kg)
        stats = traversal_stats(kg)
        assert (stats.rebuilds, stats.cache_hits) == (1, 1)
        assert stats.as_dict() == {"cache_hits": 1, "rebuilds": 1}
        graph_topology(kg)
        assert stats.cache_hits == 1  # frozen: later reads do not move it


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
    def test_codec_round_trip_preserves_the_holder_csr(self, random_graph, topology):
        buf = _encode_to_buffer(random_graph)
        view = SegmentView(buf, name="unit", expected_uid=7, expected_epoch=topology.epoch)
        restored = restore_graph_topology(random_graph, view)
        assert restored.entity_ids == topology.entity_ids
        assert restored.predicates == topology.predicates
        assert restored._columns is random_graph.columns.epoch(len(random_graph))
        for name in ("feature_codes", "holder_offsets", "holder_ordinals", "anchor_features", "anchor_offsets"):
            assert np.array_equal(getattr(restored, name), getattr(topology, name)), name
        everyone = range(topology.num_entities)
        for row_a, row_b in zip(topology.feature_rows(everyone), restored.feature_rows(everyone)):
            assert np.array_equal(row_a, row_b)

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
