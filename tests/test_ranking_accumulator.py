"""Equivalence of the array recommendation pipeline and the seed path.

Both §2.3 rankers run on the type-grouped accumulator decomposition of
``p(pi | e)`` over the pinned snapshot's feature tables, and the
correlation matrix is one numpy assembly.  These tests enforce the
contract: ``rank()`` (fast) and ``rank_exhaustive()`` (seed path)
produce identical rankings — same entities, same features, same scores —
on the hand-built, synthetic and random knowledge graphs, the fast
matrix equals the cell-by-cell one, and an explicit candidate pool (the
reference's input) is read as a set of known entities.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RankingConfig
from repro.datasets import RandomKGConfig, build_random_kg
from repro.exceptions import EntityNotFoundError
from repro.features import SemanticFeature, SemanticFeatureIndex
from repro.kg import KnowledgeGraph
from repro.ranking import (
    EntityRanker,
    SemanticFeatureRanker,
    build_correlation_matrix,
    build_correlation_matrix_exhaustive,
)


def _seeds_from_largest_type(graph: KnowledgeGraph, count: int) -> list[str]:
    largest_type = max(graph.types(), key=lambda t: (graph.type_count(t), t))
    members = sorted(graph.entities_of_type(largest_type))
    return members[:count]


def _feature_signature(scored) -> list:
    return [(item.feature, item.score, dict(item.seed_probabilities)) for item in scored]


def _entity_signature(scored) -> list:
    return [(item.entity_id, item.score, dict(item.contributions)) for item in scored]


def assert_pipeline_equivalent(
    graph: KnowledgeGraph,
    seeds: list[str],
    config: RankingConfig | None = None,
    top_k: int | None = None,
) -> None:
    """Fast and exhaustive rankings (and matrices) must match exactly.

    The fast path always runs the max-score kernel, so this helper is
    simultaneously the pruned-vs-exhaustive equivalence check demanded by
    the threshold-pruning layer.
    """
    config = config or RankingConfig()
    index = SemanticFeatureIndex.build(graph)
    feature_ranker = SemanticFeatureRanker(graph, index, config=config)
    entity_ranker = EntityRanker(graph, index, config=config, feature_ranker=feature_ranker)

    fast_features = feature_ranker.rank(seeds, top_k=top_k)
    slow_features = feature_ranker.rank_exhaustive(seeds, top_k=top_k)
    assert _feature_signature(fast_features) == _feature_signature(slow_features)

    fast_entities = entity_ranker.rank(seeds, top_k=top_k, scored_features=fast_features)
    slow_entities = entity_ranker.rank_exhaustive(
        seeds, top_k=top_k, scored_features=slow_features
    )
    assert _entity_signature(fast_entities) == _entity_signature(slow_entities)

    model = feature_ranker.probability_model
    fast_matrix = build_correlation_matrix(model, fast_entities, fast_features)
    slow_matrix = build_correlation_matrix_exhaustive(model, slow_entities, slow_features)
    assert fast_matrix.entities == slow_matrix.entities
    assert fast_matrix.features == slow_matrix.features
    assert np.array_equal(fast_matrix.values, slow_matrix.values)


class TestEquivalenceOnCuratedGraphs:
    def test_tiny_kg(self, tiny_kg: KnowledgeGraph):
        assert_pipeline_equivalent(tiny_kg, ["ex:F1", "ex:F2"])

    def test_tiny_kg_single_seed_small_k(self, tiny_kg: KnowledgeGraph):
        assert_pipeline_equivalent(tiny_kg, ["ex:F1"], top_k=2)

    def test_movie_kg(self, movie_kg: KnowledgeGraph):
        assert_pipeline_equivalent(movie_kg, ["dbr:Forrest_Gump", "dbr:Apollo_13_(film)"])

    def test_academic_kg(self, academic_kg: KnowledgeGraph):
        assert_pipeline_equivalent(academic_kg, _seeds_from_largest_type(academic_kg, 2))

    def test_without_type_smoothing(self, tiny_kg: KnowledgeGraph):
        config = RankingConfig(type_smoothing=False)
        assert_pipeline_equivalent(tiny_kg, ["ex:F1", "ex:F2"], config=config)

    def test_ablation_switches(self, tiny_kg: KnowledgeGraph):
        for changes in (
            {"use_discriminability": False},
            {"use_commonality": False},
            {"use_discriminability": False, "use_commonality": False},
        ):
            config = RankingConfig().with_(**changes)
            assert_pipeline_equivalent(tiny_kg, ["ex:F1", "ex:F2"], config=config)

    def test_duplicate_seeds(self, tiny_kg: KnowledgeGraph):
        assert_pipeline_equivalent(tiny_kg, ["ex:F1", "ex:F2", "ex:F1"])


class TestEquivalenceOnRandomGraphs:
    """The property-based check: random KGs, several structures and seeds."""

    @pytest.mark.parametrize("kg_seed", [1, 7, 13])
    @pytest.mark.parametrize("seed_count", [1, 3])
    def test_random_kg(self, kg_seed: int, seed_count: int):
        graph = build_random_kg(
            RandomKGConfig(num_entities=150, num_types=6, seed=kg_seed)
        )
        seeds = _seeds_from_largest_type(graph, seed_count)
        assert_pipeline_equivalent(graph, seeds)
        assert_pipeline_equivalent(graph, seeds, top_k=5)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=10_000),
        num_entities=st.integers(min_value=20, max_value=80),
        num_types=st.integers(min_value=2, max_value=8),
        seed_count=st.integers(min_value=1, max_value=3),
        top_k=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    )
    def test_random_kg_property(self, kg_seed, num_entities, num_types, seed_count, top_k):
        graph = build_random_kg(
            RandomKGConfig(num_entities=num_entities, num_types=num_types, seed=kg_seed)
        )
        seeds = _seeds_from_largest_type(graph, seed_count)
        assert_pipeline_equivalent(graph, seeds, top_k=top_k)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=10_000),
        num_entities=st.integers(min_value=40, max_value=120),
        seed_count=st.integers(min_value=1, max_value=4),
        top_k=st.integers(min_value=1, max_value=8),
    )
    def test_random_skewed_kg_pruned_property(self, kg_seed, num_entities, seed_count, top_k):
        """Hub-anchored graphs: the regime where type groups actually die."""
        graph = build_random_kg(
            RandomKGConfig(
                num_entities=num_entities, seed=kg_seed, target_skew=1.5, avg_out_degree=6.0
            )
        )
        seeds = _seeds_from_largest_type(graph, seed_count)
        assert_pipeline_equivalent(graph, seeds, top_k=top_k)


@pytest.fixture(scope="module")
def skewed_kg() -> KnowledgeGraph:
    """Hub-anchored, so the pruned accumulators actually skip groups."""
    return build_random_kg(
        RandomKGConfig(num_entities=160, seed=31, target_skew=1.5, avg_out_degree=6.0)
    )


class TestScoringKnobMatrix:
    """Every scoring variant: both forms of every stage agree.

    ``type_smoothing`` changes the base rows the kernel inputs are built
    from; the two ablation switches change the SF scores that weight the
    entity accumulators and the matrix cells.
    """

    @pytest.mark.parametrize("use_commonality", [True, False])
    @pytest.mark.parametrize("use_discriminability", [True, False])
    @pytest.mark.parametrize("type_smoothing", [True, False])
    def test_pipeline_equivalent(
        self, skewed_kg, type_smoothing, use_discriminability, use_commonality
    ):
        config = RankingConfig(
            type_smoothing=type_smoothing,
            use_discriminability=use_discriminability,
            use_commonality=use_commonality,
        )
        assert_pipeline_equivalent(
            skewed_kg, _seeds_from_largest_type(skewed_kg, 3), config=config, top_k=8
        )


class TestMaxscorePruningOnRankers:
    """Explicit pruned-vs-exhaustive checks plus counter sanity."""

    def test_pruned_equals_exhaustive_entity_ranking(self, movie_kg: KnowledgeGraph):
        index = SemanticFeatureIndex.build(movie_kg)
        seeds = ["dbr:Forrest_Gump", "dbr:Apollo_13_(film)"]
        ranker = EntityRanker(movie_kg, index)
        features = ranker.feature_ranker.rank(seeds)
        exhaustive = ranker.rank_exhaustive(seeds, scored_features=features)
        pruned = ranker.rank(seeds, scored_features=features)
        assert _entity_signature(pruned) == _entity_signature(exhaustive)

    def test_pruning_counters_fire_at_scale(self):
        graph = build_random_kg(
            RandomKGConfig(num_entities=600, seed=42, target_skew=1.5, avg_out_degree=8.0)
        )
        index = SemanticFeatureIndex.build(graph)
        ranker = EntityRanker(graph, index)
        largest = max(
            index.all_features(), key=lambda f: (len(index.holders_of(f)), f.notation())
        )
        seeds = sorted(index.holders_of(largest))[:4]
        ranker.rank(seeds, top_k=10)
        info = ranker.pruning_info()
        assert info["queries"] == 1
        assert info["groups_total"] > 0
        assert info["groups_skipped"] > 0
        assert info["candidates_pruned"] > 0
        assert info["rescored"] > 0

    def test_there_is_no_pruning_knob(self):
        """Max-score is the only top-k strategy: no config selects another."""
        with pytest.raises(TypeError):
            RankingConfig(pruning="off")  # type: ignore[call-arg]


class TestRankingSupportLayer:
    def test_support_cached_per_epoch(self, tiny_kg: KnowledgeGraph):
        index = SemanticFeatureIndex.build(tiny_kg)
        model = SemanticFeatureRanker(tiny_kg, index).probability_model
        first = model.support()
        assert model.support() is first
        tiny_kg.add("ex:F9", "ex:starring", "ex:A1")
        second = model.support()
        assert second is not first
        assert second.epoch > first.epoch

    def test_holders_are_frozen_and_a_miss_allocates_nothing(self, tiny_kg: KnowledgeGraph):
        index = SemanticFeatureIndex.build(tiny_kg)
        feature = index.all_features()[0]
        holders = index.holders_of(feature)
        assert isinstance(holders, frozenset) and holders == index.holders_of(feature)
        # Unknown features share one empty set — no per-miss allocation.
        from repro.features import SemanticFeature

        ghost = SemanticFeature("ex:nobody", "ex:nothing")
        assert index.holders_of(ghost) is index.holders_of(ghost)
        # The public accessor still returns an independent copy.
        copy = index.entities_matching(feature)
        copy.add("ex:intruder")
        assert "ex:intruder" not in index.holders_of(feature)

    def test_index_epoch_tracks_graph(self, tiny_kg: KnowledgeGraph):
        index = SemanticFeatureIndex.build(tiny_kg)
        before = index.epoch
        assert before == tiny_kg.epoch
        tiny_kg.add("ex:F9", "ex:starring", "ex:A1")
        assert index.epoch == tiny_kg.epoch
        assert index.epoch > before
        # The rebuilt index sees the new holder.
        from repro.features import Direction, SemanticFeature

        starring_a1 = SemanticFeature("ex:A1", "ex:starring", Direction.OBJECT_OF)
        assert "ex:F9" in index.holders_of(starring_a1)

    def test_index_candidates_match_graph_walk(self, movie_kg: KnowledgeGraph):
        from repro.features import candidate_entities

        index = SemanticFeatureIndex.build(movie_kg)
        features = index.features_of("dbr:Forrest_Gump")
        ordered = sorted(features)
        assert index.candidates_matching_any(
            ordered, exclude=["dbr:Forrest_Gump"], limit=50
        ) == candidate_entities(movie_kg, ordered, exclude=["dbr:Forrest_Gump"], limit=50)


class TestCorrelationMatrixDuplicates:
    def test_duplicate_entities_match_exhaustive(self, tiny_kg: KnowledgeGraph):
        index = SemanticFeatureIndex.build(tiny_kg)
        ranker = EntityRanker(tiny_kg, index)
        features = ranker.feature_ranker.rank(["ex:F1", "ex:F2"])
        entities = ranker.rank(["ex:F1", "ex:F2"], scored_features=features)
        doubled = list(entities) + list(entities)  # duplicate ids are legal input
        model = ranker.feature_ranker.probability_model
        fast = build_correlation_matrix(model, doubled, features)
        slow = build_correlation_matrix_exhaustive(model, doubled, features)
        assert np.array_equal(fast.values, slow.values)


class TestCorrelationMatrixPositions:
    def test_lookups_use_memoised_positions(self, tiny_kg: KnowledgeGraph):
        index = SemanticFeatureIndex.build(tiny_kg)
        ranker = EntityRanker(tiny_kg, index)
        features = ranker.feature_ranker.rank(["ex:F1", "ex:F2"])
        entities = ranker.rank(["ex:F1", "ex:F2"], scored_features=features)
        matrix = build_correlation_matrix(
            ranker.feature_ranker.probability_model, entities, features
        )
        first = entities[0].entity_id
        assert matrix.value(first, features[0].feature) == pytest.approx(
            float(matrix.values[0, 0])
        )
        # The position maps are materialised once and reused.
        assert "_entity_positions" in matrix.__dict__
        assert matrix.entity_row(first) == {
            scored.feature.notation(): pytest.approx(float(matrix.values[0, column]))
            for column, scored in enumerate(features)
        }
        column_map = matrix.feature_column(features[0].feature)
        assert set(column_map) == set(matrix.entities)


class TestExplicitPools:
    """A caller's own candidate pool runs the reference, which reads it as a
    duplicate-free pool of graph entities."""

    @pytest.fixture(scope="class")
    def setup(self):
        graph = build_random_kg(RandomKGConfig(num_entities=300, seed=3))
        ranker = EntityRanker(graph, SemanticFeatureIndex.build(graph))
        seeds = _seeds_from_largest_type(graph, 2)
        scored_features = ranker.feature_ranker.rank(seeds)
        pool = ranker.candidates(seeds, scored_features)
        return ranker, seeds, scored_features, pool

    def test_entity_pool_is_deduplicated(self, setup):
        ranker, seeds, scored_features, pool = setup
        top_k = len(pool) + 3
        once = ranker.rank_exhaustive(seeds, top_k, scored_features, candidates=pool)
        for rank in (ranker.rank, ranker.rank_exhaustive):
            twice = rank(seeds, top_k, scored_features, candidates=pool + pool[:3])
            assert _entity_signature(twice) == _entity_signature(once)
            assert len({item.entity_id for item in twice}) == len(twice) == len(pool)

    def test_feature_pool_is_deduplicated(self, setup):
        ranker, seeds, _, _ = setup
        features = ranker.feature_ranker
        pool = features.candidate_features(seeds)
        repeated = pool + pool[:2]
        once = features.rank_exhaustive(seeds, top_k=len(repeated), candidates=pool)
        for rank in (features.rank, features.rank_exhaustive):
            twice = rank(seeds, top_k=len(repeated), candidates=repeated)
            assert _feature_signature(twice) == _feature_signature(once)
            assert len(twice) == len(pool)

    def test_unknown_candidate_entity_is_rejected(self, setup):
        ranker, seeds, scored_features, pool = setup
        for rank in (ranker.rank, ranker.rank_exhaustive):
            with pytest.raises(EntityNotFoundError):
                rank(seeds, scored_features=scored_features, candidates=[*pool, "pivote:no_such_entity"])

    def test_feature_the_graph_lacks_stays_legal(self, setup):
        ranker, seeds, _, _ = setup
        ghost = SemanticFeature("pivote:no_such_entity", "pivote:nothing")
        pool = [*ranker.feature_ranker.candidate_features(seeds), ghost]
        ranked = ranker.feature_ranker.rank(seeds, top_k=len(pool), candidates=pool)
        assert ghost in {item.feature for item in ranked}
        assert ranked[-1].score == 0.0
