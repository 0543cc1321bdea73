"""Array-form expansion equivalence: byte-identical to the reference.

The expander's domain-type filter is one mask over the pinned feature
tables' membership CSR.  Expansion results and recommendations must be
*exactly* what the exhaustive reference (``exhaustive=True``: the
object-form tally, the ``entities_of_type`` set probe, the
``rank_exhaustive`` rankers) produces — same ids, same floats, same
order.  The suites here enforce that on the synthetic movie graph, on a
skewed random KG, and (via hypothesis) on random KGs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import RandomKGConfig, build_random_kg, small_movie_kg
from repro.engine import PivotE
from repro.expansion import EntitySetExpander
from repro.explore import RecommendationEngine


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
def reference_baseline(random_graph):
    """The exhaustive-reference recommendation."""
    seeds = _seeds(random_graph)
    engine = RecommendationEngine(random_graph)
    baseline = _recommendation_signature(engine.recommend_for_seeds(seeds, exhaustive=True))
    engine.close()
    return seeds, baseline


class TestExpansionEquivalence:
    """The expander's candidate generation + type restriction, arrays == reference."""

    @pytest.mark.parametrize("domain_type", ["", "__dominant__"])
    def test_expand_byte_identical(self, random_graph, domain_type):
        seeds = _seeds(random_graph)
        if domain_type == "__dominant__":
            domain_type = max(
                random_graph.types(),
                key=lambda t: (random_graph.type_count(t), t),
            )
        expander = EntitySetExpander(random_graph)
        assert _expansion_signature(
            expander.expand(seeds, domain_type=domain_type)
        ) == _expansion_signature(expander.expand(seeds, domain_type=domain_type, exhaustive=True))
        stages = expander.feature_ranker.probability_model.stages
        assert stages.arrays["filters"] == (1 if domain_type else 0)
        assert not any(stages.fallbacks.values())

    def test_restrict_candidates_byte_identical(self, random_graph):
        """The public filter itself: candidates in reverse order, against
        every type in the graph and one it lacks, arrays == reference."""
        expander = EntitySetExpander(random_graph)
        tables = expander.feature_ranker.probability_model.support().columnar_tables()
        candidates = sorted(random_graph.entities(), reverse=True)[:40]
        ordinals = tables.entity_ordinals(candidates)
        for restricted_type in [*sorted(random_graph.types()), "ex:NoSuchType"]:
            kept = expander.restrict_candidates(ordinals, restricted_type, tables=tables)
            assert [tables.entity_ids[ordinal] for ordinal in kept.tolist()] == (
                expander.restrict_candidates(candidates, restricted_type)
            )
        empty = ordinals[:0]
        assert expander.restrict_candidates(empty, sorted(random_graph.types())[0], tables=tables).size == 0
        assert expander.restrict_candidates([], sorted(random_graph.types())[0]) == []

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
    """Full recommendations, arrays == reference."""

    def test_byte_identical(self, random_graph, reference_baseline):
        seeds, baseline = reference_baseline
        engine = RecommendationEngine(random_graph)
        try:
            assert _recommendation_signature(engine.recommend_for_seeds(seeds)) == baseline
        finally:
            engine.close()

    def test_movie_graph_system_level(self):
        """Whole-facade check on the curated dataset, domain pivots included."""
        graph = small_movie_kg()
        seeds = _seeds(graph)
        with PivotE(graph) as system:
            for domain in ["", max(graph.types(), key=lambda t: (graph.type_count(t), t))]:
                actual = system.recommend(seeds, domain_type=domain)
                expected = system.recommend(seeds, domain_type=domain, exhaustive=True)
                assert _recommendation_signature(actual) == (
                    _recommendation_signature(expected)
                )
            stages = system.stats().child("recommendation").stages
            assert stages.arrays["filters"] >= 1 and stages.fallback_total == 0


class TestTopologyEquivalenceProperty:
    """Hypothesis: random KGs, arrays == reference."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=500),
        num_entities=st.integers(min_value=30, max_value=80),
    )
    def test_recommendation_arrays_equal_reference(self, kg_seed, num_entities):
        graph = build_random_kg(
            RandomKGConfig(num_entities=num_entities, seed=kg_seed)
        )
        seeds = _seeds(graph)
        domain = max(graph.types(), key=lambda t: (graph.type_count(t), t))
        engine = RecommendationEngine(graph)
        for domain_type in ("", domain):
            assert _recommendation_signature(
                engine.recommend_for_seeds(seeds, domain_type=domain_type)
            ) == _recommendation_signature(
                engine.recommend_for_seeds(seeds, domain_type=domain_type, exhaustive=True)
            )
        engine.close()
