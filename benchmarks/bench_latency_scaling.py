"""E8: latency scaling of recommendation and keyword search.

The demo claims interactive exploration where recommendations are computed
"on the fly".  This bench measures two hot paths as the knowledge graph
grows, using the configurable random KG generator:

The A/B also carries a batch arm: ``batched`` answers the workload —
duplicated ×2, as real traffic repeats queries — through one cache-free
``SearchEngine.search_many`` call against the same requests issued one
at a time (``unbatched``).

Every search scorer has two forms: the columnar kernels
(``repro.index.columnar`` + ``repro.topk.kernels``) feeding the exact
re-scoring epilogue, and the exhaustive reference.

* recommendation latency vs. graph size and seed count (the original E8);
* keyword-search latency in a four-way A/B: the exhaustive
  score-all-then-sort reference (``search_exhaustive``), the plain
  accumulation kernel (``pruning="off"``), the threshold-pruned max-score
  kernel (``pruning="maxscore"``, the default — see ``repro.topk``), and
  the engine-level LRU result cache for repeated queries.  The A/B
  verifies that all scoring paths return identical rankings before
  trusting any timing, and reports every pruned path's skip counters.

Run as a script to produce the machine-readable baseline::

    python benchmarks/bench_latency_scaling.py --sizes 200,500 \
        --output BENCH_search_latency.json

which is what the CI bench-smoke job does on the tiny (200-entity)
dataset; the committed ``BENCH_search_latency.json`` at the repo root is
the perf trajectory baseline for future PRs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

from repro.config import SearchConfig  # noqa: E402
from repro.datasets import RandomKGConfig, build_random_kg  # noqa: E402
from repro.eval import Stopwatch, print_experiment  # noqa: E402
from repro.expansion import EntitySetExpander  # noqa: E402
from repro.search import MixtureLanguageModelScorer, SearchEngine, parse_query  # noqa: E402

SIZES = (200, 500, 1000, 2000)


def _search_queries(graph, num_queries: int = 8) -> list[str]:
    """Deterministic multi-term keyword queries from entity labels.

    Every label of the random KG shares the token "entity", so each query
    drags the longest posting list in the index through scoring — the
    worst case for the score-all pattern.  Half the queries combine two
    labels (4 tokens) so the mix covers the multi-term queries users
    actually type, where term-at-a-time pruning has terms to skip.
    """
    entities = sorted(graph.entities())
    step = max(1, len(entities) // num_queries)
    queries: list[str] = []
    singles = [graph.label(entities[index]) for index in range(0, len(entities), step)]
    for position, label in enumerate(singles):
        if len(queries) >= num_queries:
            break
        if position % 2 == 0:
            queries.append(label)
        else:
            partner = singles[(position + num_queries // 2) % len(singles)]
            queries.append(f"{label} {partner}")
    return queries


def _results_signature(results) -> list:
    return [(result.doc_id, result.score) for result in results]


def measure_search_ab(
    graph,
    repeats: int = 5,
    num_queries: int = 8,
    top_k: int = 20,
) -> dict[str, object]:
    """Pruned-vs-accumulator-vs-exhaustive (and cached) search latency.

    Returns a row with mean/p95 latencies per mode, the speedup factors,
    the pruned path's skip counters and an ``identical`` flag confirming
    every scoring path ranked identically.
    """
    engine = SearchEngine.from_graph(graph)  # pruning="maxscore" by default
    pruned = engine.mlm_scorer
    #: The accumulator baseline: the plain (unpruned) accumulation kernel.
    plain = MixtureLanguageModelScorer(engine.index, SearchConfig(pruning="off"))
    #: The batch arm runs cache-free so it measures search_many's
    #: amortisation (shared snapshot + in-batch dedupe), not LRU hits.
    batch_engine = SearchEngine.from_graph(graph, SearchConfig(result_cache_size=0))
    queries = _search_queries(graph, num_queries)
    parsed = [parse_query(raw) for raw in queries]
    #: Real traffic repeats queries; the batch input carries each query
    #: twice so the in-batch dedupe has duplicates to amortise.
    batch_input = queries + queries
    watch = Stopwatch()
    identical = True
    for raw, query in zip(queries, parsed):
        slow = _results_signature(pruned.search_exhaustive(query, top_k=top_k))
        if _results_signature(pruned.search(query, top_k=top_k)) != slow:
            identical = False
        if _results_signature(plain.search(query, top_k=top_k)) != slow:
            identical = False
        engine.search(raw, top_k=top_k)  # warm the LRU so "cached" times hits only
    batched_hits = batch_engine.search_many(batch_input, top_k=top_k)
    serial_hits = [batch_engine.search(raw, top_k=top_k) for raw in batch_input]
    if [[hit.as_dict() for hit in hits] for hits in batched_hits] != [
        [hit.as_dict() for hit in hits] for hits in serial_hits
    ]:
        identical = False
    for _ in range(repeats):
        for raw, query in zip(queries, parsed):
            with watch.measure("exhaustive"):
                pruned.search_exhaustive(query, top_k=top_k)
            with watch.measure("accumulator"):
                plain.search(query, top_k=top_k)
            with watch.measure("pruned"):
                pruned.search(query, top_k=top_k)
            with watch.measure("cached"):
                engine.search(raw, top_k=top_k)
        # The batch arm answers the duplicated workload in one call; the
        # unbatched arm issues the same requests one at a time on the
        # same cache-free engine.
        with watch.measure("batched"):
            batch_engine.search_many(batch_input, top_k=top_k)
        with watch.measure("unbatched"):
            for raw in batch_input:
                batch_engine.search(raw, top_k=top_k)
    exhaustive = watch.stats("exhaustive").as_dict()
    accumulator = watch.stats("accumulator").as_dict()
    pruned_stats = watch.stats("pruned").as_dict()
    cached = watch.stats("cached").as_dict()
    batched = watch.stats("batched").as_dict()
    unbatched = watch.stats("unbatched").as_dict()

    def _speedup(mean_ms: float) -> float:
        return exhaustive["mean_ms"] / mean_ms if mean_ms > 0 else float("inf")

    return {
        "entities": graph.num_entities(),
        "edges": graph.num_edges(),
        "queries": len(queries),
        "repeats": repeats,
        "top_k": top_k,
        "identical": identical,
        "exhaustive_mean_ms": exhaustive["mean_ms"],
        "exhaustive_p95_ms": exhaustive["p95_ms"],
        "accumulator_mean_ms": accumulator["mean_ms"],
        "accumulator_p95_ms": accumulator["p95_ms"],
        "pruned_mean_ms": pruned_stats["mean_ms"],
        "pruned_p95_ms": pruned_stats["p95_ms"],
        "cpu_cores": os.cpu_count() or 1,
        "cached_mean_ms": cached["mean_ms"],
        "cached_p95_ms": cached["p95_ms"],
        # Per-query means of the ×2-duplicated batch workload.
        "batched_mean_ms": batched["mean_ms"] / len(batch_input),
        "unbatched_mean_ms": unbatched["mean_ms"] / len(batch_input),
        "speedup_accumulator": _speedup(accumulator["mean_ms"]),
        "speedup_pruned": _speedup(pruned_stats["mean_ms"]),
        "speedup_cached": _speedup(cached["mean_ms"]),
        # > 1.0 = one search_many call beats the same requests one-by-one.
        "batch_ratio": (
            unbatched["mean_ms"] / batched["mean_ms"]
            if batched["mean_ms"] > 0
            else float("inf")
        ),
        "pruning": pruned.pruning_info(),
    }


# --------------------------------------------------------------------- #
# Pytest entry points
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def graphs():
    return {size: build_random_kg(RandomKGConfig(num_entities=size, seed=42)) for size in SIZES}


@pytest.fixture(scope="module")
def expanders(graphs):
    return {size: EntitySetExpander(graph) for size, graph in graphs.items()}


def _seeds(graph, count: int):
    """Pick deterministic seeds from the largest type of a random KG."""
    largest_type = max(graph.types(), key=lambda t: (graph.type_count(t), t))
    members = sorted(graph.entities_of_type(largest_type))
    return members[:count]


def test_latency_vs_graph_size(graphs, expanders):
    """Latency of one expansion (2 seeds) as the graph grows."""
    watch = Stopwatch()
    rows = []
    for size in SIZES:
        graph, expander = graphs[size], expanders[size]
        seeds = _seeds(graph, 2)
        label = f"entities={size}"
        for _ in range(3):
            with watch.measure(label):
                expander.expand(seeds, top_k=20)
        stats = watch.stats(label).as_dict()
        rows.append({"entities": size, "edges": graph.num_edges(), "mean_ms": stats["mean_ms"], "p95_ms": stats["p95_ms"]})
    print_experiment(
        "E8a — recommendation latency vs. KG size (2 seeds, top-20)",
        rows,
        notes="expected shape: roughly linear in graph size, interactive (< 1s) at laptop scale",
    )
    assert rows[-1]["mean_ms"] > 0


def test_latency_vs_seed_count(graphs, expanders):
    """Latency of one expansion as the number of seeds grows (fixed graph)."""
    size = 1000
    graph, expander = graphs[size], expanders[size]
    watch = Stopwatch()
    rows = []
    for count in (1, 2, 4, 8):
        seeds = _seeds(graph, count)
        label = f"seeds={count}"
        for _ in range(3):
            with watch.measure(label):
                expander.expand(seeds, top_k=20)
        stats = watch.stats(label).as_dict()
        rows.append({"seeds": count, "mean_ms": stats["mean_ms"], "p95_ms": stats["p95_ms"]})
    print_experiment("E8b — recommendation latency vs. seed count (1000 entities)", rows)
    assert len(rows) == 4


def test_search_accumulator_vs_exhaustive_ab(graphs):
    """E8c: the scoring-path A/B — identical rankings, lower latency."""
    rows = []
    for size in SIZES:
        row = measure_search_ab(graphs[size], repeats=3)
        assert row["identical"], f"pruned/accumulator ranking diverged at {size} entities"
        rows.append(
            {
                "entities": row["entities"],
                "exhaustive_ms": row["exhaustive_mean_ms"],
                "accumulator_ms": row["accumulator_mean_ms"],
                "pruned_ms": row["pruned_mean_ms"],
                "batched_ms": row["batched_mean_ms"],
                "cached_ms": row["cached_mean_ms"],
                "speedup": row["speedup_accumulator"],
                "speedup_pruned": row["speedup_pruned"],
                "batch_ratio": row["batch_ratio"],
                "speedup_cached": row["speedup_cached"],
            }
        )
    print_experiment(
        "E8c — keyword search: batched vs. maxscore vs. accumulator vs. exhaustive",
        rows,
        notes=(
            "identical rankings; pruned is the maxscore path, batched one "
            "search_many call, cached the LRU hit path"
        ),
    )
    assert all(row["pruned_ms"] > 0 for row in rows)
    largest = measure_search_ab(graphs[SIZES[-1]], repeats=1)
    assert largest["pruning"]["candidates_pruned"] > 0  # θ actually bites at scale


@pytest.mark.benchmark(group="latency-scaling")
@pytest.mark.parametrize("size", SIZES)
def test_bench_expand_by_graph_size(benchmark, expanders, graphs, size):
    expander = expanders[size]
    seeds = _seeds(graphs[size], 2)
    result = benchmark(expander.expand, seeds, 20)
    assert result.entities


@pytest.mark.benchmark(group="latency-scaling")
@pytest.mark.parametrize("seed_count", (1, 2, 4, 8))
def test_bench_expand_by_seed_count(benchmark, expanders, graphs, seed_count):
    expander = expanders[1000]
    seeds = _seeds(graphs[1000], seed_count)
    result = benchmark(expander.expand, seeds, 20)
    assert result.seeds == tuple(seeds)


# --------------------------------------------------------------------- #
# Script entry point (used by the CI bench-smoke job)
# --------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--sizes",
        default="200,500,1000,2000",
        help="comma-separated KG sizes (entities) to measure",
    )
    parser.add_argument("--queries", type=int, default=8, help="queries per size")
    parser.add_argument("--repeats", type=int, default=5, help="repeats per query per mode")
    parser.add_argument("--top-k", type=int, default=20, help="results per query")
    parser.add_argument("--output", type=Path, default=None, help="write JSON report here")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the largest size reaches this accumulator speedup",
    )
    parser.add_argument(
        "--min-pruned-ratio",
        type=float,
        default=None,
        help=(
            "fail unless accumulator_mean_ms over the maxscore arm's mean "
            "reaches this at the largest size (1.0 = pruned at-or-faster "
            "than the plain accumulation kernel)"
        ),
    )
    parser.add_argument(
        "--min-batch-ratio",
        type=float,
        default=None,
        help=(
            "fail unless the unbatched/batched wall-clock ratio of the "
            "duplicated workload reaches this at the largest size "
            "(1.0 = one search_many call at-or-faster than a query loop)"
        ),
    )
    args = parser.parse_args(argv)

    sizes = sorted({int(token) for token in args.sizes.split(",") if token.strip()})
    if not sizes:
        parser.error("--sizes must name at least one KG size")
    rows = []
    for size in sizes:
        graph = build_random_kg(RandomKGConfig(num_entities=size, seed=42))
        row = measure_search_ab(
            graph, repeats=args.repeats, num_queries=args.queries, top_k=args.top_k
        )
        rows.append(row)
        print(
            f"entities={row['entities']:>6}  exhaustive={row['exhaustive_mean_ms']:8.3f}ms  "
            f"accumulator={row['accumulator_mean_ms']:8.3f}ms  pruned={row['pruned_mean_ms']:8.3f}ms  "
            f"batched={row['batched_mean_ms']:8.3f}ms  cached={row['cached_mean_ms']:8.3f}ms  "
            f"speedup={row['speedup_accumulator']:6.2f}x  pruned={row['speedup_pruned']:6.2f}x  "
            f"batch_ratio={row['batch_ratio']:5.2f}  cached={row['speedup_cached']:8.2f}x  "
            f"identical={row['identical']}"
        )

    report = {
        "bench": "search_latency_scaling",
        "description": (
            "keyword search latency: maxscore-pruned vs accumulator vs "
            "exhaustive vs LRU-cached, plus a batched arm"
        ),
        "config": {
            "sizes": sizes,
            "queries": args.queries,
            "repeats": args.repeats,
            "top_k": args.top_k,
            "kg_seed": 42,
        },
        "rows": rows,
    }
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")

    if any(not row["identical"] for row in rows):
        print("FAIL: pruned/accumulator rankings diverged from exhaustive scoring", file=sys.stderr)
        return 1
    largest = rows[-1]
    if args.min_speedup is not None and largest["speedup_accumulator"] < args.min_speedup:
        print(
            f"FAIL: speedup {largest['speedup_accumulator']:.2f}x below "
            f"required {args.min_speedup:.2f}x at {largest['entities']} entities",
            file=sys.stderr,
        )
        return 1
    if args.min_pruned_ratio is not None:
        mean_ms = largest["pruned_mean_ms"]
        ratio = largest["accumulator_mean_ms"] / mean_ms if mean_ms > 0 else float("inf")
        if ratio < args.min_pruned_ratio:
            print(
                f"FAIL: pruned/accumulator ratio {ratio:.2f} below required "
                f"{args.min_pruned_ratio:.2f} at {largest['entities']} entities",
                file=sys.stderr,
            )
            return 1
    if args.min_batch_ratio is not None and largest["batch_ratio"] < args.min_batch_ratio:
        print(
            f"FAIL: batch ratio {largest['batch_ratio']:.2f} below required "
            f"{args.min_batch_ratio:.2f} at {largest['entities']} entities",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
