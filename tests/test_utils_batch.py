"""Tests for repro.utils.dedupe_batch and the engines' batch APIs on it."""

from __future__ import annotations

import pytest

from repro.datasets import RandomKGConfig, build_random_kg
from repro.explore import RecommendationEngine
from repro.search import SearchEngine
from repro.utils import dedupe_batch


class TestDedupeBatch:
    def test_duplicates_computed_once(self):
        calls: list[str] = []

        def compute(request: str) -> str:
            calls.append(request)
            return request.upper()

        results = dedupe_batch(["a", "b", "a", "c", "b"], lambda r: r, compute)
        assert results == ["A", "B", "A", "C", "B"]
        assert calls == ["a", "b", "c"]  # first-appearance order, once each

    def test_empty_batch(self):
        assert dedupe_batch([], lambda r: r, lambda r: r) == []


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
        # The permutation was served from the first request's entry.
        assert engine.stats().cache("recommendations").misses == 1
