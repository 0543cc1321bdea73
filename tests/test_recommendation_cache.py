"""Tests for the recommendation engine's epoch-keyed LRU cache and the
domain-restriction fix (filter before top-k truncation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RankingConfig
from repro.explore import RecommendationEngine
from repro.features import Direction, SemanticFeature
from repro.kg import GraphBuilder, KnowledgeGraph


def _cache_info(engine: RecommendationEngine) -> dict[str, int]:
    """The recommendation cache's counters, read off the engine's stats record."""
    return engine.stats().cache("recommendations").as_info()


@pytest.fixture
def engine(tiny_kg: KnowledgeGraph) -> RecommendationEngine:
    return RecommendationEngine(tiny_kg)


class TestRecommendationCache:
    def test_repeat_query_hits_cache(self, engine: RecommendationEngine):
        first = engine.recommend_for_seeds(["ex:F1", "ex:F2"])
        info = _cache_info(engine)
        assert info == {**info, "hits": 0, "misses": 1, "size": 1}
        second = engine.recommend_for_seeds(["ex:F1", "ex:F2"])
        assert _cache_info(engine)["hits"] == 1
        assert second.entity_ids() == first.entity_ids()
        assert second.feature_notations() == first.feature_notations()
        assert np.array_equal(second.correlations.values, first.correlations.values)

    def test_seed_order_is_canonicalised(self, engine: RecommendationEngine):
        first = engine.recommend_for_seeds(["ex:F1", "ex:F2"])
        second = engine.recommend_for_seeds(["ex:F2", "ex:F1"])
        assert _cache_info(engine)["hits"] == 1
        assert second.entity_ids() == first.entity_ids()
        # The payload still reports the caller's query, not the cached one.
        assert second.query.seed_entities == ("ex:F2", "ex:F1")

    def test_pinned_feature_order_is_canonicalised(self, engine: RecommendationEngine):
        starring_a1 = SemanticFeature("ex:A1", "ex:starring", Direction.OBJECT_OF)
        genre_g1 = SemanticFeature("ex:G1", "ex:genre", Direction.OBJECT_OF)
        engine.recommend_for_seeds(["ex:F1"], pinned_features=[starring_a1, genre_g1])
        engine.recommend_for_seeds(["ex:F1"], pinned_features=[genre_g1, starring_a1])
        assert _cache_info(engine)["hits"] == 1

    def test_distinct_query_states_are_distinct_entries(self, engine: RecommendationEngine):
        engine.recommend_for_seeds(["ex:F1"])
        engine.recommend_for_seeds(["ex:F1"], domain_type="ex:Film")
        engine.recommend_for_seeds(["ex:F1"], top_entities=1)
        info = _cache_info(engine)
        assert info["hits"] == 0
        assert info["size"] == 3

    def test_graph_mutation_bumps_epoch_and_clears_cache(
        self, engine: RecommendationEngine, tiny_kg: KnowledgeGraph
    ):
        engine.recommend_for_seeds(["ex:F1", "ex:F2"])
        epoch_before = engine.feature_index.epoch
        assert _cache_info(engine)["size"] == 1

        # A new film starring A1 must invalidate everything derived.
        tiny_kg.add("ex:F9", "ex:starring", "ex:A1")
        tiny_kg.add_type("ex:F9", "ex:Film")
        assert engine.feature_index.epoch > epoch_before

        recommendation = engine.recommend_for_seeds(["ex:F1", "ex:F2"])
        info = _cache_info(engine)
        assert info["hits"] == 0
        assert info["misses"] == 2
        assert info["size"] == 1  # old entry was dropped with the epoch
        assert info["epoch"] == engine.feature_index.epoch
        # The fresh result reflects the mutated graph.
        assert "ex:F9" in recommendation.entity_ids()

    def test_cache_disabled_by_config(self, tiny_kg: KnowledgeGraph):
        engine = RecommendationEngine(
            tiny_kg, config=RankingConfig(recommendation_cache_size=0)
        )
        engine.recommend_for_seeds(["ex:F1"])
        engine.recommend_for_seeds(["ex:F1"])
        info = _cache_info(engine)
        assert info["hits"] == 0
        assert info["misses"] == 0
        assert info["size"] == 0

    def test_lru_eviction(self, tiny_kg: KnowledgeGraph):
        engine = RecommendationEngine(
            tiny_kg, config=RankingConfig(recommendation_cache_size=2)
        )
        engine.recommend_for_seeds(["ex:F1"])
        engine.recommend_for_seeds(["ex:F2"])
        engine.recommend_for_seeds(["ex:F3"])  # evicts ["ex:F1"]
        assert _cache_info(engine)["size"] == 2
        engine.recommend_for_seeds(["ex:F1"])
        assert _cache_info(engine)["hits"] == 0

    def test_clear_cache(self, engine: RecommendationEngine):
        engine.recommend_for_seeds(["ex:F1"])
        engine.clear_cache()
        assert _cache_info(engine)["size"] == 0

    def test_cache_stats_reflect_mutation_without_a_recommend_call(
        self, engine: RecommendationEngine, tiny_kg: KnowledgeGraph
    ):
        engine.recommend_for_seeds(["ex:F1"])
        tiny_kg.add("ex:F9", "ex:starring", "ex:A1")
        info = _cache_info(engine)
        assert info["size"] == 0  # invalidated entries are not reported
        assert info["epoch"] == engine.feature_index.epoch

    def test_cached_payloads_are_immutable_but_picklable(
        self, engine: RecommendationEngine
    ):
        import copy
        import pickle

        recommendation = engine.recommend_for_seeds(["ex:F1", "ex:F2"])
        with pytest.raises(ValueError):
            recommendation.correlations.values[0, 0] = 99.0
        with pytest.raises(TypeError):
            recommendation.entities[0].contributions["x"] = 1.0  # type: ignore[index]
        with pytest.raises(TypeError):
            recommendation.features[0].seed_probabilities["x"] = 1.0  # type: ignore[index]
        # ...but the payload still round-trips through pickle and deepcopy.
        clone = pickle.loads(pickle.dumps(recommendation))
        assert clone.entity_ids() == recommendation.entity_ids()
        assert dict(clone.entities[0].contributions) == dict(
            recommendation.entities[0].contributions
        )
        deep = copy.deepcopy(recommendation.entities[0])
        assert deep == recommendation.entities[0]

    def test_exhaustive_bypasses_cache_and_matches(self, engine: RecommendationEngine):
        fast = engine.recommend_for_seeds(["ex:F1", "ex:F2"])
        slow = engine.recommend_for_seeds(["ex:F1", "ex:F2"], exhaustive=True)
        info = _cache_info(engine)
        assert info == {**info, "hits": 0, "misses": 1, "size": 1}
        assert slow.entity_ids() == fast.entity_ids()
        assert slow.feature_notations() == fast.feature_notations()
        assert np.array_equal(slow.correlations.values, fast.correlations.values)


def build_crowded_domain_kg() -> KnowledgeGraph:
    """A graph where non-domain candidates outrank every domain candidate.

    The seed ``ex:S`` holds two features anchored at the hub ``ex:H``.
    Fifteen persons hold both features (high scores); two films hold only
    one (low scores).  Before the fix, the domain filter ran *after* top-k
    truncation of an over-fetched prefix, so a Film-restricted
    recommendation came back empty even though matching films exist.
    """
    builder = GraphBuilder("crowded")
    builder.entity("ex:H", label="Hub", types=["ex:Hub"])
    builder.entity("ex:S", label="Seed", types=["ex:Seed"])
    builder.edge("ex:S", "ex:p1", "ex:H")
    builder.edge("ex:S", "ex:p2", "ex:H")
    for i in range(15):
        person = f"ex:P{i:02d}"
        builder.entity(person, label=f"Person {i}", types=["ex:Person"])
        builder.edge(person, "ex:p1", "ex:H")
        builder.edge(person, "ex:p2", "ex:H")
    for i in range(2):
        film = f"ex:M{i}"
        builder.entity(film, label=f"Film {i}", types=["ex:Film"])
        builder.edge(film, "ex:p1", "ex:H")
    return builder.build()


class TestDomainFilterBeforeTruncation:
    def test_domain_matches_survive_crowding(self):
        graph = build_crowded_domain_kg()
        engine = RecommendationEngine(graph)
        recommendation = engine.recommend_for_seeds(
            ["ex:S"], domain_type="ex:Film", top_entities=1
        )
        assert recommendation.entity_ids() == ["ex:M0"]

    def test_domain_returns_full_top_k(self):
        graph = build_crowded_domain_kg()
        engine = RecommendationEngine(graph)
        recommendation = engine.recommend_for_seeds(
            ["ex:S"], domain_type="ex:Film", top_entities=10
        )
        assert recommendation.entity_ids() == ["ex:M0", "ex:M1"]
        for entity_id in recommendation.entity_ids():
            assert "ex:Film" in graph.types_of(entity_id)

    def test_unrestricted_ranking_prefers_persons(self):
        graph = build_crowded_domain_kg()
        engine = RecommendationEngine(graph)
        recommendation = engine.recommend_for_seeds(["ex:S"], top_entities=5)
        for entity_id in recommendation.entity_ids():
            assert "ex:Person" in graph.types_of(entity_id)
