"""Graph-topology execution equivalence: byte-identical to scalar walks.

The contract of the PR 10 topology layer (``repro.kg.topology``): with
``graph_topology=True`` (the default) expansion traverses through the
CSR adjacency and the interval-encoded type filter, and the expansion
results and recommendations must be *exactly* what the scalar per-edge
walks produce — same ids, same floats, same order.  The suites here
enforce that on the synthetic movie graph, on a skewed random KG, and
(via hypothesis) on random KGs; path helpers are covered directly against
their ``*_scalar`` arms.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PivotEConfig, RankingConfig
from repro.datasets import RandomKGConfig, build_random_kg, small_movie_kg
from repro.engine import PivotE
from repro.expansion import EntitySetExpander
from repro.explore import RecommendationEngine
from repro.kg import bfs_reachable, bfs_reachable_scalar, traversal_stats


def _recommendation_signature(result):
    return (
        [(e.entity_id, e.score) for e in result.entities],
        [(f.feature.notation(), f.score) for f in result.features],
    )


def _expansion_signature(result):
    return (
        [(e.entity_id, e.score) for e in result.entities],
        [(f.feature.notation(), f.score) for f in result.features],
        result.restricted_type,
    )


def _seeds(graph, count=2):
    largest = max(graph.types(), key=lambda t: (graph.type_count(t), t))
    return sorted(graph.entities_of_type(largest))[:count]


@pytest.fixture(scope="module")
def random_graph():
    return build_random_kg(
        RandomKGConfig(num_entities=140, seed=23, target_skew=1.2)
    )


@pytest.fixture(scope="module")
def scalar_baseline(random_graph):
    """The recommendation baseline with the topology OFF."""
    seeds = _seeds(random_graph)
    engine = RecommendationEngine(random_graph, config=RankingConfig(graph_topology=False))
    baseline = _recommendation_signature(engine.recommend_for_seeds(seeds))
    engine.close()
    return seeds, baseline


class TestExpansionEquivalence:
    """The expander's candidate generation + type restriction, on == off."""

    @pytest.mark.parametrize("domain_type", ["", "__dominant__"])
    def test_expand_byte_identical(self, random_graph, domain_type):
        seeds = _seeds(random_graph)
        if domain_type == "__dominant__":
            domain_type = max(
                random_graph.types(),
                key=lambda t: (random_graph.type_count(t), t),
            )
        on = EntitySetExpander(random_graph, config=RankingConfig(graph_topology=True))
        off = EntitySetExpander(random_graph, config=RankingConfig(graph_topology=False))
        assert _expansion_signature(
            on.expand(seeds, domain_type=domain_type)
        ) == _expansion_signature(off.expand(seeds, domain_type=domain_type))

    def test_restrict_candidates_byte_identical(self, random_graph):
        """The public filter itself: mixed known/unknown/off-type ids,
        order preserved, against every type in the graph."""
        on = EntitySetExpander(random_graph, config=RankingConfig(graph_topology=True))
        off = EntitySetExpander(random_graph, config=RankingConfig(graph_topology=False))
        candidates = sorted(random_graph.entities(), reverse=True)[:40]
        candidates += ["ex:not_in_graph", candidates[0]]
        for restricted_type in sorted(random_graph.types()):
            assert on.restrict_candidates(candidates, restricted_type) == (
                off.restrict_candidates(candidates, restricted_type)
            )
        assert on.restrict_candidates(candidates, "ex:NoSuchType") == (
            off.restrict_candidates(candidates, "ex:NoSuchType")
        )
        assert on.restrict_candidates([], sorted(random_graph.types())[0]) == []

    def test_dominant_seed_type_single_probe_per_seed(self, random_graph):
        expander = EntitySetExpander(random_graph)
        seeds = _seeds(random_graph, count=3)
        calls = []
        original = random_graph.dominant_type

        def counting(entity_id):
            calls.append(entity_id)
            return original(entity_id)

        random_graph.dominant_type = counting  # type: ignore[method-assign]
        try:
            expander.dominant_seed_type(seeds)
        finally:
            del random_graph.dominant_type
        assert calls == list(seeds)


class TestRecommendationEquivalence:
    """Full recommendations across the execution matrix, on == off."""

    def test_byte_identical(self, random_graph, scalar_baseline):
        seeds, baseline = scalar_baseline
        engine = RecommendationEngine(random_graph, config=RankingConfig(graph_topology=True))
        try:
            assert _recommendation_signature(engine.recommend_for_seeds(seeds)) == baseline
        finally:
            engine.close()

    def test_movie_graph_system_level(self):
        """Whole-facade check on the curated dataset, domain pivots included."""
        graph = small_movie_kg()
        seeds = _seeds(graph)

        def build(topology: bool) -> PivotE:
            return PivotE(
                graph, config=PivotEConfig(ranking=RankingConfig(graph_topology=topology))
            )

        on, off = build(True), build(False)
        try:
            for domain in ["", max(graph.types(), key=lambda t: (graph.type_count(t), t))]:
                actual = on.recommend(seeds, domain_type=domain)
                expected = off.recommend(seeds, domain_type=domain)
                assert _recommendation_signature(actual) == (
                    _recommendation_signature(expected)
                )
            assert traversal_stats(graph).interval_filters >= 1
        finally:
            on.close()
            off.close()

    def test_topology_arm_actually_engages(self, random_graph):
        """Telemetry proof the fast path ran: interval filters counted on,
        scalar arm leaves them untouched."""
        graph = build_random_kg(RandomKGConfig(num_entities=60, seed=31))
        seeds = _seeds(graph)
        domain = max(graph.types(), key=lambda t: (graph.type_count(t), t))
        before = traversal_stats(graph).interval_filters
        on = RecommendationEngine(graph, config=RankingConfig(graph_topology=True))
        on.recommend_for_seeds(seeds, domain_type=domain)
        engaged = traversal_stats(graph).interval_filters
        assert engaged > before
        assert traversal_stats(graph).interval_hits >= 1
        off = RecommendationEngine(graph, config=RankingConfig(graph_topology=False))
        off.recommend_for_seeds(seeds, domain_type=domain)
        assert traversal_stats(graph).interval_filters == engaged
        on.close()
        off.close()


class TestTopologyEquivalenceProperty:
    """Hypothesis: random KGs, on == off."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=500),
        num_entities=st.integers(min_value=30, max_value=80),
    )
    def test_recommendation_topology_equals_scalar(self, kg_seed, num_entities):
        graph = build_random_kg(
            RandomKGConfig(num_entities=num_entities, seed=kg_seed)
        )
        seeds = _seeds(graph)
        on = RecommendationEngine(graph, config=RankingConfig(graph_topology=True))
        off = RecommendationEngine(graph, config=RankingConfig(graph_topology=False))
        assert _recommendation_signature(on.recommend_for_seeds(seeds)) == (
            _recommendation_signature(off.recommend_for_seeds(seeds))
        )
        on.close()
        off.close()

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=500),
        num_entities=st.integers(min_value=20, max_value=70),
        max_hops=st.integers(min_value=0, max_value=3),
    )
    def test_bfs_topology_equals_scalar(self, kg_seed, num_entities, max_hops):
        graph = build_random_kg(
            RandomKGConfig(num_entities=num_entities, seed=kg_seed)
        )
        for probe in sorted(graph.entities())[:3]:
            assert bfs_reachable(graph, probe, max_hops=max_hops) == (
                bfs_reachable_scalar(graph, probe, max_hops=max_hops)
            )
