"""Incremental ``SemanticFeatureIndex`` refresh: delta == full rebuild.

The feature index tracks the graph's append-only triple log and applies
only the delta on epoch change (full rebuild past
``GraphTopology.max_delta_fraction``).  These tests enforce the
contract: a delta-refreshed index is indistinguishable from a freshly
built one.  The graphs are small, so the delta tests raise the fraction
until every write is a delta.
"""

from __future__ import annotations

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from columnar_oracle import maps
from repro.datasets import RandomKGConfig, build_random_kg
from repro.features import SemanticFeature, SemanticFeatureIndex
from repro.kg import GraphTopology, KnowledgeGraph


def derive_every_delta():
    return patch.object(GraphTopology, "max_delta_fraction", 1.0)


def _assert_index_equals_fresh(index: SemanticFeatureIndex, graph: KnowledgeGraph) -> None:
    snapshot = index.snapshot()  # trigger the lazy refresh before inspecting
    fresh = SemanticFeatureIndex.build(graph)
    fresh_snapshot = fresh.snapshot()
    assert maps(snapshot) == maps(fresh_snapshot)
    for feature in fresh.all_features()[:25]:
        for type_id in sorted(graph.types())[:5]:
            assert index.type_conditional_count(feature, type_id) == (
                fresh.type_conditional_count(feature, type_id)
            )


def _mutate(graph: KnowledgeGraph, rounds: int = 1) -> None:
    for number in range(rounds):
        graph.add(f"ex:new_{number}", "ex:linksTo", "ex:new_target")
        graph.add_type(f"ex:new_{number}", "ex:NewType")
        graph.add_label(f"ex:new_{number}", f"New {number}")
        graph.add("ex:new_target", "ex:linksTo", f"ex:new_{number}")
        graph.add_category(f"ex:new_{number}", "ex:category_new")
        graph.add_alias(f"ex:new_{number}", f"ex:new_{number}_alias")


class TestDeltaEqualsFullRebuild:
    @pytest.fixture(autouse=True)
    def _derive(self):
        with derive_every_delta():
            yield

    def test_tiny_kg_small_delta(self, tiny_kg: KnowledgeGraph):
        index = SemanticFeatureIndex.build(tiny_kg)
        tiny_kg.add("ex:F1", "ex:starring", "ex:A2")
        tiny_kg.add_type("ex:F1", "ex:Blockbuster")
        assert index.epoch == tiny_kg.epoch  # triggers the refresh
        assert index.rebuild_info()["delta_rebuilds"] == 1
        _assert_index_equals_fresh(index, tiny_kg)

    def test_new_entities_and_aliases(self, tiny_kg: KnowledgeGraph):
        index = SemanticFeatureIndex.build(tiny_kg)
        _mutate(tiny_kg)
        index.epoch
        assert index.rebuild_info()["delta_rebuilds"] == 1
        assert index.rebuild_info()["full_rebuilds"] == 1
        _assert_index_equals_fresh(index, tiny_kg)

    def test_repeated_small_deltas(self, movie_kg: KnowledgeGraph):
        graph = movie_kg.copy()
        index = SemanticFeatureIndex.build(graph)
        for round_number in range(4):
            graph.add(f"dbr:Extra_{round_number}", "dbo:starring", "dbr:Tom_Hanks")
            _assert_index_equals_fresh(index, graph)
        assert index.rebuild_info()["delta_rebuilds"] == 4
        assert index.rebuild_info()["full_rebuilds"] == 1

    def test_delta_visible_through_public_accessors(self, tiny_kg: KnowledgeGraph):
        from repro.features import Direction

        index = SemanticFeatureIndex.build(tiny_kg)
        tiny_kg.add("ex:F9", "ex:starring", "ex:A1")
        starring_a1 = SemanticFeature("ex:A1", "ex:starring", Direction.OBJECT_OF)
        assert "ex:F9" in index.holders_of(starring_a1)
        assert index.holds("ex:F9", starring_a1)
        assert starring_a1 in index.features_of("ex:F9")


class TestFullRebuildFallback:
    def test_large_delta_triggers_full_rebuild(self, tiny_kg: KnowledgeGraph):
        index = SemanticFeatureIndex.build(tiny_kg)
        _mutate(tiny_kg, rounds=10)  # way past the fraction of the tiny graph
        index.epoch
        info = index.rebuild_info()
        assert info["full_rebuilds"] == 2
        assert info["delta_rebuilds"] == 0
        _assert_index_equals_fresh(index, tiny_kg)

    def test_delta_counters_report_affected_entities(self, tiny_kg: KnowledgeGraph):
        index = SemanticFeatureIndex.build(tiny_kg)
        tiny_kg.add("ex:F3", "ex:starring", "ex:A3")  # genuinely new edge
        with derive_every_delta():
            index.epoch
        assert index.rebuild_info()["delta_entities"] >= 2  # both endpoints


class TestDeltaEqualsFullRebuildProperty:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=1000),
        num_entities=st.integers(min_value=15, max_value=60),
        extra_edges=st.integers(min_value=1, max_value=6),
    )
    def test_random_kg_delta(self, kg_seed: int, num_entities: int, extra_edges: int):
        graph = build_random_kg(RandomKGConfig(num_entities=num_entities, seed=kg_seed))
        index = SemanticFeatureIndex.build(graph)
        entities = sorted(graph.entities())
        for number in range(extra_edges):
            source = entities[(kg_seed + number) % len(entities)]
            target = entities[(kg_seed + 3 * number + 1) % len(entities)]
            graph.add(source, f"ex:delta_rel_{number % 2}", target)
            graph.add_type(source, "ex:DeltaType")
        with derive_every_delta():
            snapshot = index.snapshot()
        assert index.rebuild_info()["delta_rebuilds"] == 1
        fresh = SemanticFeatureIndex.build(graph).snapshot()
        assert maps(snapshot) == maps(fresh)
