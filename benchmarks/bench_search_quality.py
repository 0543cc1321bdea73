"""E7: keyword entity-search quality — five-field MLM vs. baselines.

The paper's search engine (§2.2) scores entities with a mixture of language
models over the five-field representation "since multi-fielded entity
representation has been proved to be beneficial for entity search".  This
bench quantifies that claim on a synthetic query workload: the five-field
mixture vs. a names-only language model vs. BM25F.  Expected shape: the
five-field mixture wins on MRR/MAP because many queries only match via
categories, attributes, aliases or related-entity names.
"""

from __future__ import annotations

import pytest

from repro.datasets import search_tasks_from_labels
from repro.eval import SearchEvaluator, Stopwatch, method_comparison_rows, print_experiment
from repro.search import SearchEngine, parse_query

METRICS = ("rr", "ap", "p@1", "recall@10", "ndcg@10")


@pytest.fixture(scope="module")
def engine(movie_kg) -> SearchEngine:
    return SearchEngine.from_graph(movie_kg)


@pytest.fixture(scope="module")
def tasks(movie_kg):
    return search_tasks_from_labels(movie_kg, num_tasks=40)


def test_search_quality_comparison(engine, tasks):
    """Main comparison table of the three retrieval models."""
    evaluator = SearchEvaluator(engine, top_k=20)
    results = evaluator.compare(tasks)
    rows = method_comparison_rows(
        {name: result.metrics for name, result in results.items()}, metrics=METRICS
    )
    print_experiment(
        "E7 — keyword entity search quality (40 name/category queries)",
        rows,
        notes="expected shape: mlm-5field >= lm-names-only and competitive with bm25f",
    )
    mlm = results["mlm-5field"]
    assert mlm.metric("rr") >= results["lm-names-only"].metric("rr") - 0.05
    assert mlm.metric("rr") > 0.4


def test_search_accumulator_ab(engine, tasks):
    """A/B: the accumulator hot path vs. the seed's exhaustive scoring.

    Rankings must be identical on the whole E7 workload; the accumulator
    path should win on latency (reported, not asserted — CI machines vary).
    """
    scorer = engine.mlm_scorer
    watch = Stopwatch()
    for task in tasks:
        query = parse_query(task.query)
        with watch.measure("accumulator"):
            fast = scorer.search(query, top_k=20)
        with watch.measure("exhaustive"):
            slow = scorer.search_exhaustive(query, top_k=20)
        assert [(r.doc_id, r.score) for r in fast] == [(r.doc_id, r.score) for r in slow]
    accumulator = watch.stats("accumulator").as_dict()
    exhaustive = watch.stats("exhaustive").as_dict()
    speedup = (
        exhaustive["mean_ms"] / accumulator["mean_ms"] if accumulator["mean_ms"] > 0 else 0.0
    )
    print_experiment(
        "E7b — accumulator vs. exhaustive scoring (movie KG, 40 queries)",
        [
            {"mode": "exhaustive", "mean_ms": exhaustive["mean_ms"], "p95_ms": exhaustive["p95_ms"]},
            {"mode": "accumulator", "mean_ms": accumulator["mean_ms"], "p95_ms": accumulator["p95_ms"]},
            {"mode": "speedup", "mean_ms": speedup, "p95_ms": 0.0},
        ],
        notes="rankings byte-identical on all tasks; speedup row is exhaustive/accumulator",
    )


@pytest.mark.benchmark(group="search-quality")
def test_bench_mlm_query(benchmark, engine):
    hits = benchmark(engine.search, "forrest gump")
    assert hits[0].entity_id == "dbr:Forrest_Gump"


@pytest.mark.benchmark(group="search-quality")
def test_bench_mlm_query_exhaustive(benchmark, engine):
    """The seed scoring path, kept benchmarked for the perf trajectory."""
    scorer = engine.mlm_scorer
    query = parse_query("forrest gump")
    results = benchmark(scorer.search_exhaustive, query)
    assert results[0].doc_id == "dbr:Forrest_Gump"


@pytest.mark.benchmark(group="search-quality")
def test_bench_bm25f_query(benchmark, engine):
    scorer = engine.bm25f_scorer()
    results = benchmark(scorer.search_exhaustive, parse_query("forrest gump"))
    assert results


@pytest.mark.benchmark(group="search-quality")
def test_bench_index_build(benchmark, movie_kg):
    """Time to build the full five-field index from the graph."""
    engine = benchmark(SearchEngine.from_graph, movie_kg)
    assert engine.num_indexed() == movie_kg.num_entities()
