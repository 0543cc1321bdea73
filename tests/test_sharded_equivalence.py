"""Sharded / batched execution equivalence: byte-identical to 1-shard serial.

The contract of the PR 5 execution layer (``repro.exec``): for every shard
count, every pruning mode and all four search scorers, the sharded
fan-out (and the batch APIs, the recommender's included) must return
*exactly* the rankings the serial single-shard path returns — same ids,
same floats.  The suites here enforce that on the hand-built graphs and,
via hypothesis, on random KGs; the counter-audit tests pin the
``merge_shard_stats`` semantics at scale (one logical query, candidates
summing exactly over the partition).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PRUNING_MODES, SearchConfig
from repro.datasets import RandomKGConfig, build_random_kg
from repro.explore import RecommendationEngine
from repro.search import (
    BM25FieldScorer,
    BM25FScorer,
    SearchEngine,
    parse_query,
)

SHARD_COUNTS = (2, 3, 5)


def _signature(results) -> list[tuple[str, float]]:
    return [(result.doc_id, result.score) for result in results]


def _hit_signature(hits) -> list[tuple[str, float]]:
    return [(hit.entity_id, hit.score) for hit in hits]


def _queries(graph, count: int = 6) -> list[str]:
    entities = sorted(graph.entities())
    step = max(1, len(entities) // count)
    labels = [graph.label(entities[index]) for index in range(0, len(entities), step)]
    queries = []
    for position, label in enumerate(labels[:count]):
        if position % 2 == 0:
            queries.append(label)
        else:
            queries.append(f"{label} {labels[(position + 2) % len(labels)]}")
    return queries


@pytest.fixture(scope="module")
def random_graph():
    return build_random_kg(RandomKGConfig(num_entities=250, seed=11))


class TestShardedSearchEquivalence:
    """All four scorers, every pruning mode, N ∈ {2, 3, 5} vs serial."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_engine_mlm_byte_identical(self, random_graph, pruning, shards):
        serial = SearchEngine.from_graph(random_graph, SearchConfig(pruning=pruning))
        sharded = SearchEngine.from_graph(
            random_graph, SearchConfig(pruning=pruning, shards=shards)
        )
        for query in _queries(random_graph):
            assert _hit_signature(sharded.search(query)) == _hit_signature(
                serial.search(query)
            )

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_single_field_byte_identical(self, random_graph, pruning, shards):
        serial = SearchEngine.from_graph(
            random_graph, SearchConfig(pruning=pruning)
        ).single_field_scorer()
        sharded = SearchEngine.from_graph(
            random_graph, SearchConfig(pruning=pruning, shards=shards)
        ).single_field_scorer()
        for query in _queries(random_graph):
            parsed = parse_query(query)
            assert _signature(sharded.search(parsed, top_k=15)) == _signature(
                serial.search(parsed, top_k=15)
            )

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_bm25_and_bm25f_byte_identical(self, random_graph, pruning, shards):
        engine = SearchEngine.from_graph(random_graph)
        index = engine.index
        weights = engine.config.field_weights
        bm25_serial = BM25FieldScorer(index, "names", pruning=pruning)
        bm25_sharded = BM25FieldScorer(index, "names", pruning=pruning, shards=shards)
        bm25f_serial = BM25FScorer(index, weights, pruning=pruning)
        bm25f_sharded = BM25FScorer(index, weights, pruning=pruning, shards=shards)
        for query in _queries(random_graph):
            parsed = parse_query(query)
            assert _signature(bm25_sharded.search(parsed, top_k=15)) == _signature(
                bm25_serial.search(parsed, top_k=15)
            )
            assert _signature(bm25f_sharded.search(parsed, top_k=15)) == _signature(
                bm25f_serial.search(parsed, top_k=15)
            )

    def test_sharded_matches_exhaustive_reference(self, random_graph):
        """Transitivity spot check: sharded == serial == exhaustive."""
        engine = SearchEngine.from_graph(random_graph, SearchConfig(shards=4))
        scorer = engine.mlm_scorer
        for query in _queries(random_graph, count=3):
            parsed = parse_query(query)
            assert _signature(scorer.search(parsed)) == _signature(
                scorer.search_exhaustive(parsed)
            )


class TestBatchEquivalence:
    def test_search_many_matches_serial_calls(self, random_graph):
        engine = SearchEngine.from_graph(random_graph)
        queries = _queries(random_graph)
        batch_input = queries + queries[:3]  # duplicates computed once
        batched = engine.search_many(batch_input)
        serial = [engine.search(query) for query in batch_input]
        assert [
            _hit_signature(hits) for hits in batched
        ] == [_hit_signature(hits) for hits in serial]

    def test_search_many_with_shards(self, random_graph):
        serial = SearchEngine.from_graph(random_graph)
        sharded = SearchEngine.from_graph(random_graph, SearchConfig(shards=4))
        queries = _queries(random_graph)
        assert [
            _hit_signature(hits) for hits in sharded.search_many(queries)
        ] == [_hit_signature(hits) for hits in serial.search_many(queries)]

    def test_search_many_returns_caller_owned_lists(self, random_graph):
        engine = SearchEngine.from_graph(random_graph)
        query = _queries(random_graph)[0]
        first, second = engine.search_many([query, query])
        assert first == second
        first.clear()
        assert second  # duplicate positions never share the list object

    def test_recommend_many_matches_serial_calls(self, random_graph):
        largest = max(random_graph.types(), key=lambda t: (random_graph.type_count(t), t))
        members = sorted(random_graph.entities_of_type(largest))
        seed_lists = [members[:2], members[1:3], list(reversed(members[:2]))]
        engine = RecommendationEngine(random_graph)
        batched = engine.recommend_many(seed_lists)
        fresh = RecommendationEngine(random_graph)
        serial = [fresh.recommend_for_seeds(seeds) for seeds in seed_lists]
        for got, expected, seeds in zip(batched, serial, seed_lists):
            assert [(e.entity_id, e.score) for e in got.entities] == [
                (e.entity_id, e.score) for e in expected.entities
            ]
            assert got.query.seed_entities == tuple(seeds)

    def test_recommend_many_dedupes_permutations(self, random_graph):
        largest = max(random_graph.types(), key=lambda t: (random_graph.type_count(t), t))
        members = sorted(random_graph.entities_of_type(largest))
        engine = RecommendationEngine(random_graph)
        engine.recommend_many([members[:2], list(reversed(members[:2]))])
        info = engine.cache_info()
        assert info["misses"] == 1  # the permutation was served from the first


class TestShardedCounterAudit:
    """merge_shard_stats semantics at scale (the PR 5 small-fix satellite)."""

    def test_dense_counters_sum_exactly_over_partition(self, random_graph):
        query = parse_query(" ".join(_queries(random_graph, count=2)))
        serial = SearchEngine.from_graph(random_graph)
        sharded = SearchEngine.from_graph(random_graph, SearchConfig(shards=4))
        serial.search(query)
        sharded.search(query)
        serial_info = serial.pruning_info()
        sharded_info = sharded.pruning_info()
        # One logical query each, and the candidate partition covers the
        # pool exactly once — no double-counting across the merge.
        assert sharded_info["queries"] == serial_info["queries"] == 1
        assert sharded_info["candidates_total"] == serial_info["candidates_total"]

    def test_sharded_pruning_actually_bites_at_scale(self):
        graph = build_random_kg(RandomKGConfig(num_entities=600, seed=13))
        engine = SearchEngine.from_graph(graph, SearchConfig(shards=4))
        entities = sorted(graph.entities())
        # A multi-label query gives max-score enough terms to close the
        # θ gap (2-term label queries rarely evict at this scale).
        query = " ".join(graph.label(entity) for entity in entities[:6])
        engine.search(query)
        info = engine.pruning_info()
        assert info["queries"] == 1
        assert info["candidates_pruned"] > 0


class TestShardedEquivalenceProperty:
    """Hypothesis: random KGs, random shard counts, every pruning mode."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        kg_seed=st.integers(min_value=0, max_value=500),
        num_entities=st.integers(min_value=30, max_value=90),
        shards=st.sampled_from(SHARD_COUNTS),
        pruning=st.sampled_from(PRUNING_MODES),
    )
    def test_search_sharded_equals_serial(self, kg_seed, num_entities, shards, pruning):
        graph = build_random_kg(RandomKGConfig(num_entities=num_entities, seed=kg_seed))
        serial = SearchEngine.from_graph(graph, SearchConfig(pruning=pruning))
        sharded = SearchEngine.from_graph(
            graph, SearchConfig(pruning=pruning, shards=shards)
        )
        for query in _queries(graph, count=3):
            assert _hit_signature(sharded.search(query)) == _hit_signature(
                serial.search(query)
            )
