"""Ranker kernel equivalence: the array entity ranker vs the exhaustive reference.

The contract of the columnar recommendation ranker
(``repro.features.columnar`` + ``repro.topk.kernels``): the entity
accumulator runs through the per-epoch feature tables and the
``columnar_rank`` kernel, and the rankings must be *exactly* the
exhaustive reference's — same ids, same floats.  The kernels only ever
select survivor supersets; the exact re-scoring epilogue owns the
returned floats, so any divergence here means a kernel pruned a true
top-k entity.

The suites enforce that on a hub-skewed random KG (dense candidate
pools, the workload §2.3 targets), at the kernel level where the pruned
survivors must carry the unpruned accumulator values and cover its
top-k, and — via hypothesis — on arbitrary random KGs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RankingConfig
from repro.datasets import RandomKGConfig, build_random_kg
from repro.explore import RecommendationEngine
from repro.features import SemanticFeatureIndex
from repro.features.columnar import build_ranker_inputs
from repro.topk import PruningStats, RankerKernelInputs, columnar_rank


def _entity_signature(results) -> list[tuple[str, float]]:
    return [(entity.entity_id, entity.score) for entity in results]


def _seeds(graph, count: int = 2) -> list[str]:
    largest = max(graph.types(), key=lambda t: (graph.type_count(t), t))
    return sorted(graph.entities_of_type(largest))[:count]


@pytest.fixture(scope="module")
def random_graph():
    return build_random_kg(
        RandomKGConfig(num_entities=140, seed=23, target_skew=1.4, avg_out_degree=6.0)
    )


@pytest.fixture(scope="module")
def feature_index(random_graph):
    return SemanticFeatureIndex.build(random_graph)


def _unpruned_accumulators(inputs: RankerKernelInputs) -> np.ndarray:
    """Every candidate's full accumulator: base scatter plus every holder
    correction, no kills — aligned with ``inputs.ordinals``."""
    accumulators = inputs.base_scores[inputs.type_index]
    for column, positions in enumerate(inputs.holder_positions):
        accumulators[positions] += inputs.corrections[inputs.type_index[positions], column]
    return accumulators


def _engine(graph, index, **knobs) -> RecommendationEngine:
    return RecommendationEngine(
        graph,
        feature_index=index,
        config=RankingConfig(recommendation_cache_size=0, **knobs),
    )


class TestEntityRankerEquivalence:
    """array == exhaustive."""

    def test_rank_byte_identical(self, random_graph, feature_index):
        seeds = _seeds(random_graph)
        ranker = _engine(random_graph, feature_index).expander.entity_ranker
        assert _entity_signature(ranker.rank(seeds)) == _entity_signature(
            ranker.rank_exhaustive(seeds)
        )

    @pytest.mark.parametrize("top_k", (1, 5, 20, 1000))
    def test_rank_byte_identical_at_every_k(self, random_graph, feature_index, top_k):
        """k = 1 leaves the kernel no margin; k past the pool prunes nothing."""
        seeds = _seeds(random_graph, 3)
        ranker = _engine(random_graph, feature_index).expander.entity_ranker
        fast = ranker.rank(seeds, top_k=top_k)
        assert fast and _entity_signature(fast) == _entity_signature(
            ranker.rank_exhaustive(seeds, top_k=top_k)
        )


class TestKernel:
    """The pruned kernel against the plain accumulation it prunes."""

    @pytest.fixture()
    def inputs(self, random_graph, feature_index):
        ranker = _engine(random_graph, feature_index).expander.entity_ranker
        seeds = _seeds(random_graph)
        scored = ranker.feature_ranker.rank(seeds)
        tables = ranker.feature_ranker.probability_model.support().columnar_tables()
        features = tables.feature_ordinals([item.feature.key for item in scored])
        candidates = tables.matching_any(features, tables.entity_ordinals(seeds))
        return build_ranker_inputs(
            tables, features, [item.score for item in scored], candidates, 1e-9
        )

    def test_pruned_survivors_cover_the_top_k(self, inputs):
        full = _unpruned_accumulators(inputs)
        stats = PruningStats()
        survivors, values = columnar_rank(inputs, 10, stats)
        assert stats.kernel_queries == 1 and stats.candidates_pruned > 0
        # Survivors carry their unpruned accumulator values, and the
        # margin-selected superset retains the true top-10 — the exact
        # property the re-scoring epilogue relies on.
        assert values.tolist() == full[np.searchsorted(inputs.ordinals, survivors)].tolist()
        top = inputs.ordinals[np.lexsort((inputs.ordinals, -full))[:10]]
        assert set(top.tolist()) <= set(survivors.tolist())


class TestEngineCounters:
    def test_engine_reports_kernel_queries(self, random_graph, feature_index):
        engine = _engine(random_graph, feature_index)
        engine.recommend_for_seeds(_seeds(random_graph))
        assert engine.stats().pruning_view("entity-ranker").kernel_queries > 0


# --------------------------------------------------------------------------- #
# Hypothesis: arbitrary random KGs
# --------------------------------------------------------------------------- #
@given(
    num_entities=st.integers(min_value=30, max_value=90),
    kg_seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=12, deadline=None)
def test_rank_equals_exhaustive_on_random_kgs(num_entities, kg_seed):
    graph = build_random_kg(RandomKGConfig(num_entities=num_entities, seed=kg_seed))
    index = SemanticFeatureIndex.build(graph)
    seeds = _seeds(graph)
    if not seeds:
        return
    ranker = _engine(graph, index).expander.entity_ranker
    assert _entity_signature(ranker.rank(seeds)) == _entity_signature(
        ranker.rank_exhaustive(seeds)
    )
