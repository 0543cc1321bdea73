"""E8: latency scaling of recommendation and keyword search.

The demo claims interactive exploration where recommendations are computed
"on the fly".  This bench measures two hot paths as the knowledge graph
grows, using the configurable random KG generator:

Since PR 5 the A/B carries two execution-layer arms as well: ``sharded``
runs the same maxscore traversal fanned out over 4 document shards with
the cross-shard θ broadcast (``repro.exec``), and ``batched`` answers the
workload — duplicated ×2, as real traffic repeats queries — through one
cache-free ``SearchEngine.search_many`` call against the same requests
issued one at a time (``unbatched``).

Since PR 7 the A/B carries a ``parallel`` arm: the same sharded maxscore
traversal with ``executor="process"`` — survivor selection runs in warm
worker processes attached to the shared-memory snapshot of the columnar
index (``repro.exec.shm`` / ``repro.exec.procpool``), with the
cross-process θ slab standing in for the thread-level broadcast.
``parallel_ratio`` is pruned-serial over process wall-clock; it only
exceeds 1.0 on multi-core hosts (``cpu_cores`` is recorded so gates can
stay honest on single-core CI runners).

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

#: Document shards of the sharded A/B arm (see ``repro.exec``): the
#: committed baseline records the 4-shard fan-out against the 1-shard
#: serial path on the same workload.
SHARD_COUNT = 4

#: Worker processes of the ``parallel`` arm: capped by the shard count
#: (one worker per dispatched shard is the useful maximum) but at least
#: two so the pool actually fans out even on small CI runners.
PROCESS_WORKERS = min(SHARD_COUNT, max(2, os.cpu_count() or 1))


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
    #: The sharded arm: the same maxscore traversal fanned out over
    #: SHARD_COUNT document shards with the cross-shard θ broadcast.
    sharded_engine = SearchEngine.from_graph(graph, SearchConfig(shards=SHARD_COUNT))
    sharded = sharded_engine.mlm_scorer
    #: The parallel arm (PR 7): the same sharded traversal with worker
    #: *processes* attached to the shared-memory snapshot; byte-identical
    #: rankings, real core parallelism where the host has the cores.
    parallel_engine = SearchEngine.from_graph(
        graph,
        SearchConfig(shards=SHARD_COUNT, executor="process", workers=PROCESS_WORKERS),
    )
    parallel = parallel_engine.mlm_scorer
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
        if _results_signature(sharded.search(query, top_k=top_k)) != slow:
            identical = False
        if _results_signature(parallel.search(query, top_k=top_k)) != slow:
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
            with watch.measure("sharded"):
                sharded.search(query, top_k=top_k)
            with watch.measure("parallel"):
                parallel.search(query, top_k=top_k)
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
    sharded_stats = watch.stats("sharded").as_dict()
    parallel_stats = watch.stats("parallel").as_dict()
    executor_record = parallel_engine.stats().executor
    parallel_engine.close()  # unlink the published snapshot segment
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
        "sharded_mean_ms": sharded_stats["mean_ms"],
        "sharded_p95_ms": sharded_stats["p95_ms"],
        "shards": SHARD_COUNT,
        "parallel_mean_ms": parallel_stats["mean_ms"],
        "parallel_p95_ms": parallel_stats["p95_ms"],
        "workers": PROCESS_WORKERS,
        "cpu_cores": os.cpu_count() or 1,
        "cached_mean_ms": cached["mean_ms"],
        "cached_p95_ms": cached["p95_ms"],
        # Per-query means of the ×2-duplicated batch workload.
        "batched_mean_ms": batched["mean_ms"] / len(batch_input),
        "unbatched_mean_ms": unbatched["mean_ms"] / len(batch_input),
        "speedup_accumulator": _speedup(accumulator["mean_ms"]),
        "speedup_pruned": _speedup(pruned_stats["mean_ms"]),
        "speedup_sharded": _speedup(sharded_stats["mean_ms"]),
        "speedup_cached": _speedup(cached["mean_ms"]),
        # 1.0 = the 4-shard arm at 1-shard wall-clock; > 1.0 = ahead.
        "sharded_ratio": (
            pruned_stats["mean_ms"] / sharded_stats["mean_ms"]
            if sharded_stats["mean_ms"] > 0
            else float("inf")
        ),
        # Serial maxscore over the process arm: > 1.0 = real core
        # parallelism paid off (only expected on multi-core hosts).
        "parallel_ratio": (
            pruned_stats["mean_ms"] / parallel_stats["mean_ms"]
            if parallel_stats["mean_ms"] > 0
            else float("inf")
        ),
        "executor_parallel": None if executor_record is None else executor_record.as_dict(),
        # > 1.0 = one search_many call beats the same requests one-by-one.
        "batch_ratio": (
            unbatched["mean_ms"] / batched["mean_ms"]
            if batched["mean_ms"] > 0
            else float("inf")
        ),
        "pruning": pruned.pruning_info(),
        "pruning_sharded": sharded.pruning_info(),
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
                "sharded_ms": row["sharded_mean_ms"],
                "parallel_ms": row["parallel_mean_ms"],
                "batched_ms": row["batched_mean_ms"],
                "cached_ms": row["cached_mean_ms"],
                "speedup": row["speedup_accumulator"],
                "speedup_pruned": row["speedup_pruned"],
                "sharded_ratio": row["sharded_ratio"],
                "parallel_ratio": row["parallel_ratio"],
                "batch_ratio": row["batch_ratio"],
                "speedup_cached": row["speedup_cached"],
            }
        )
    print_experiment(
        "E8c — keyword search: sharded/batched vs. maxscore vs. accumulator vs. exhaustive",
        rows,
        notes=(
            "identical rankings; pruned is the maxscore path, sharded the 4-shard "
            "fan-out, batched one search_many call, cached the LRU hit path"
        ),
    )
    assert all(row["pruned_ms"] > 0 for row in rows)
    largest = measure_search_ab(graphs[SIZES[-1]], repeats=1)
    assert largest["pruning"]["candidates_pruned"] > 0  # θ actually bites at scale
    # Every shard worker's θ must actually evict (per-shard skip counters).
    assert largest["pruning_sharded"]["candidates_pruned"] > 0
    # One logical query per search, however many shards ran it: the
    # identity check plus one timed repeat per query.
    expected_queries = (1 + largest["repeats"]) * largest["queries"]
    assert largest["pruning_sharded"]["queries"] == expected_queries


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
        "--min-sharded-ratio",
        type=float,
        default=None,
        help=(
            "fail unless pruned_mean_ms over the 4-shard arm's mean reaches "
            "this at the largest size (1.0 = sharded at-or-faster than the "
            "1-shard serial path; sub-1.0 values tolerate fan-out overhead "
            "at smoke-test sizes)"
        ),
    )
    parser.add_argument(
        "--min-parallel-ratio",
        type=float,
        default=None,
        help=(
            "fail unless pruned_mean_ms over the process-executor arm's "
            "mean reaches this at the largest size (1.0 = process "
            "fan-out at-or-faster than the 1-shard serial path); the "
            "gate is skipped with a warning on single-core hosts, where "
            "worker processes cannot overlap"
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
            f"sharded={row['sharded_mean_ms']:8.3f}ms  "
            f"parallel={row['parallel_mean_ms']:8.3f}ms  "
            f"batched={row['batched_mean_ms']:8.3f}ms  cached={row['cached_mean_ms']:8.3f}ms  "
            f"speedup={row['speedup_accumulator']:6.2f}x  pruned={row['speedup_pruned']:6.2f}x  "
            f"shard_ratio={row['sharded_ratio']:5.2f}  "
            f"parallel_ratio={row['parallel_ratio']:5.2f}  "
            f"batch_ratio={row['batch_ratio']:5.2f}  cached={row['speedup_cached']:8.2f}x  "
            f"identical={row['identical']}"
        )

    report = {
        "bench": "search_latency_scaling",
        "description": (
            "keyword search latency: maxscore-pruned vs accumulator vs "
            "exhaustive vs LRU-cached, plus 4-shard inline/process and "
            "batched arms"
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
    if args.min_sharded_ratio is not None and largest["sharded_ratio"] < args.min_sharded_ratio:
        print(
            f"FAIL: sharded ratio {largest['sharded_ratio']:.2f} below required "
            f"{args.min_sharded_ratio:.2f} at {largest['entities']} entities",
            file=sys.stderr,
        )
        return 1
    if args.min_parallel_ratio is not None:
        if largest["cpu_cores"] <= 1:
            print(
                f"WARN: skipping --min-parallel-ratio {args.min_parallel_ratio:.2f} gate "
                f"on a single-core host (parallel_ratio={largest['parallel_ratio']:.2f})",
                file=sys.stderr,
            )
        elif largest["parallel_ratio"] < args.min_parallel_ratio:
            print(
                f"FAIL: parallel ratio {largest['parallel_ratio']:.2f} below required "
                f"{args.min_parallel_ratio:.2f} at {largest['entities']} entities "
                f"({largest['cpu_cores']} cores)",
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
