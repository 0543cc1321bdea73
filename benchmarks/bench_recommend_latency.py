"""E9: latency of the §2.3 recommendation pipeline, max-score vs seed path.

PR 2 rebuilt the two-stage recommendation model around the type-grouped
accumulator decomposition of ``p(pi | e)`` (now the ``columnar_rank``
kernel of ``repro/topk/kernels.py``) with an epoch-keyed LRU
recommendation cache on top.  This bench measures
``RecommendationEngine.recommend_for_seeds`` — feature ranking, entity
ranking and correlation-matrix assembly — in a three-way A/B as the random
KG grows:

* ``exhaustive``  — the seed scoring path (``rank_exhaustive()`` on both
  rankers, cell-by-cell matrix assembly);
* ``pruned``      — the fast path: the max-score kernel skips whole
  dominant-type groups once their base score plus correction bound
  cannot reach the live θ (see ``repro.topk``), cache disabled;
* ``cached``      — the fast path served from a warm LRU cache.

Since PR 5 the A/B carries a batch arm as well: ``batched`` answers a
×2-duplicated batch of seed sets through one cache-free
``recommend_many`` call against the same requests issued one at a time
(``unbatched`` — the in-batch canonical-key dedupe is the amortisation).

Every fast arm runs the whole request on the pinned snapshot's feature
tables (``repro.features.columnar``): feature ranking, candidate tally,
the ``columnar_rank`` kernel and the exact epilogue.  ``kernel_ms``
isolates the ranking stage itself — ``build_ranker_inputs`` +
``columnar_rank`` on the request's candidates and scored features.

The A/B verifies that the fast path returns the exhaustive entity and
feature rankings (and bitwise-identical matrices) before trusting any
timing.  Run as a script to produce the machine-readable baseline::

    python benchmarks/bench_recommend_latency.py --sizes 200,2000 \
        --output BENCH_recommend_latency.json

which is what the CI bench-smoke job does on the tiny (200-entity)
dataset; the committed ``BENCH_recommend_latency.json`` at the repo root
is the perf trajectory baseline for future PRs.
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

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.config import RankingConfig  # noqa: E402
from repro.datasets import RandomKGConfig, build_random_kg  # noqa: E402
from repro.eval import Stopwatch, print_experiment  # noqa: E402
from repro.explore import RecommendationEngine  # noqa: E402
from repro.features import SemanticFeatureIndex  # noqa: E402
from repro.features.columnar import build_ranker_inputs  # noqa: E402
from repro.topk import PruningStats, columnar_rank  # noqa: E402

SIZES = (200, 500, 1000, 2000)

#: Hub-anchored random KGs: the Zipf target skew concentrates incoming
#: edges on a few anchors per type (shared stars, genres, venues), which is
#: the structure the recommendation workload of §2.3 actually exercises —
#: large ``E(pi)`` holder lists and candidate pools of hundreds of entities.
KG_KWARGS = {"target_skew": 1.5, "avg_out_degree": 8.0}


def _build_graph(size: int):
    return build_random_kg(RandomKGConfig(num_entities=size, seed=42, **KG_KWARGS))


def _seeds(graph, index: SemanticFeatureIndex, count: int) -> list[str]:
    """Deterministic seeds: holders of the feature with the largest E(pi).

    Entities sharing a popular anchor (the paper's "films starring Tom
    Hanks") produce the dense candidate pools the two-stage model is
    designed for.
    """
    largest = max(index.all_features(), key=lambda f: (len(index.holders_of(f)), f.notation()))
    return sorted(index.holders_of(largest))[:count]


def _identical(fast, slow) -> bool:
    """Same entity ranking, feature ranking and correlation matrix."""
    return (
        fast.entity_ids() == slow.entity_ids()
        and [e.score for e in fast.entities] == [e.score for e in slow.entities]
        and fast.feature_notations() == slow.feature_notations()
        and [f.score for f in fast.features] == [f.score for f in slow.features]
        and np.array_equal(fast.correlations.values, slow.correlations.values)
    )


def _kernel_stage_ms(
    engine: RecommendationEngine,
    seeds: list[str],
    top_entities: int,
    repeats: int,
) -> dict[str, float]:
    """The ranking stage alone: kernel inputs + ``columnar_rank``.

    The kernel gets its input the way the request path hands it over:
    the candidate and feature ordinals the tally produced
    (``EntityRanker._rank_arrays`` never sees an identifier).
    """
    ranker = engine.expander.entity_ranker
    support = ranker.feature_ranker.probability_model.support()
    scored_features = ranker.feature_ranker.rank(seeds)
    tables = support.columnar_tables()
    candidate_ordinals = tables.entity_ordinals(ranker.candidates(seeds, scored_features))
    feature_ordinals = tables.feature_ordinals([scored.feature.key for scored in scored_features])
    relevance = [scored.score for scored in scored_features]
    stats = PruningStats()

    def kernel() -> None:
        inputs = build_ranker_inputs(
            tables, feature_ordinals, relevance, candidate_ordinals,
            support.epsilon, type_smoothing=support.type_smoothing,
        )
        columnar_rank(inputs, top_entities, stats)

    kernel()  # warm once so the loop pays no one-time costs
    watch = Stopwatch()
    for _ in range(max(repeats * 20, 40)):  # the stage is sub-millisecond
        with watch.measure("kernel"):
            kernel()
    return watch.stats("kernel").as_dict()


def measure_recommend_ab(
    graph,
    repeats: int = 5,
    seed_count: int = 4,
    top_entities: int = 20,
) -> dict[str, object]:
    """Max-score-vs-exhaustive (and cached) recommendation latency.

    Returns a row with mean/p95 latencies per mode, the speedup factors and
    an ``identical`` flag confirming the fast path ranked like the
    exhaustive reference.
    """
    index = SemanticFeatureIndex.build(graph)
    cached_engine = RecommendationEngine(graph, feature_index=index)
    pruned_engine = RecommendationEngine(
        graph,
        feature_index=index,
        config=RankingConfig(recommendation_cache_size=0),
    )
    seeds = _seeds(graph, index, seed_count)
    #: Batch workload: three overlapping seed sets, each submitted twice
    #: (real exploration sessions revisit query states), answered by one
    #: cache-free recommend_many call vs the same requests one at a time.
    seed_pool = _seeds(graph, index, seed_count + 2)
    batch_inputs = [seeds, seed_pool[1 : seed_count + 1], seed_pool[2 : seed_count + 2]]
    batch_inputs = batch_inputs + batch_inputs

    slow = pruned_engine.recommend_for_seeds(seeds, top_entities=top_entities, exhaustive=True)
    pruned_result = pruned_engine.recommend_for_seeds(seeds, top_entities=top_entities)
    batched_results = pruned_engine.recommend_many(batch_inputs, top_entities=top_entities)
    identical = (
        _identical(pruned_result, slow)
        and all(
            _identical(
                payload,
                pruned_engine.recommend_for_seeds(batch_seeds, top_entities=top_entities),
            )
            for payload, batch_seeds in zip(batched_results, batch_inputs)
        )
    )
    cached_engine.recommend_for_seeds(seeds, top_entities=top_entities)  # warm the LRU
    kernel = _kernel_stage_ms(pruned_engine, seeds, top_entities, repeats)

    arms = {
        "exhaustive": lambda: pruned_engine.recommend_for_seeds(
            seeds, top_entities=top_entities, exhaustive=True
        ),
        "pruned": lambda: pruned_engine.recommend_for_seeds(seeds, top_entities=top_entities),
        "batched": lambda: pruned_engine.recommend_many(batch_inputs, top_entities=top_entities),
        "unbatched": lambda: [
            pruned_engine.recommend_for_seeds(batch_seeds, top_entities=top_entities)
            for batch_seeds in batch_inputs
        ],
        "cached": lambda: cached_engine.recommend_for_seeds(seeds, top_entities=top_entities),
    }
    # Each arm is timed in its own loop after an untimed call of its own,
    # so no arm is timed right after another has displaced what it keeps
    # warm.
    watch = Stopwatch()
    for name, run in arms.items():
        run()
        for _ in range(repeats):
            with watch.measure(name):
                run()
    exhaustive = watch.stats("exhaustive").as_dict()
    pruned_stats = watch.stats("pruned").as_dict()
    batched = watch.stats("batched").as_dict()
    unbatched = watch.stats("unbatched").as_dict()
    cached = watch.stats("cached").as_dict()

    def _speedup(mean_ms: float) -> float:
        return exhaustive["mean_ms"] / mean_ms if mean_ms > 0 else float("inf")

    return {
        "entities": graph.num_entities(),
        "edges": graph.num_edges(),
        "seeds": seed_count,
        "repeats": repeats,
        "top_entities": top_entities,
        "identical": identical,
        "exhaustive_mean_ms": exhaustive["mean_ms"],
        "exhaustive_p95_ms": exhaustive["p95_ms"],
        "pruned_mean_ms": pruned_stats["mean_ms"],
        "pruned_p95_ms": pruned_stats["p95_ms"],
        # Per-request means of the ×2-duplicated batch workload.
        "batched_mean_ms": batched["mean_ms"] / len(batch_inputs),
        "unbatched_mean_ms": unbatched["mean_ms"] / len(batch_inputs),
        "cached_mean_ms": cached["mean_ms"],
        "cached_p95_ms": cached["p95_ms"],
        "speedup_pruned": _speedup(pruned_stats["mean_ms"]),
        "speedup_cached": _speedup(cached["mean_ms"]),
        # The ranking stage alone (see _kernel_stage_ms).
        "kernel_ms": kernel["mean_ms"],
        # > 1.0 = one recommend_many call beats the request loop.
        "batch_ratio": (
            unbatched["mean_ms"] / batched["mean_ms"]
            if batched["mean_ms"] > 0
            else float("inf")
        ),
        "pruning": pruned_engine.stats().pruning_view("entity-ranker").as_counters(),
    }


# --------------------------------------------------------------------- #
# Pytest entry points
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def graphs():
    return {size: _build_graph(size) for size in SIZES}


def test_recommend_maxscore_vs_exhaustive_ab(graphs):
    """E9: the recommendation A/B — identical rankings, lower latency."""
    rows = []
    for size in SIZES:
        row = measure_recommend_ab(graphs[size], repeats=3)
        assert row["identical"], f"max-score recommendation diverged at {size} entities"
        rows.append(
            {
                "entities": row["entities"],
                "exhaustive_ms": row["exhaustive_mean_ms"],
                "pruned_ms": row["pruned_mean_ms"],
                "kernel_ms": row["kernel_ms"],
                "batched_ms": row["batched_mean_ms"],
                "cached_ms": row["cached_mean_ms"],
                "speedup_pruned": row["speedup_pruned"],
                "batch_ratio": row["batch_ratio"],
                "speedup_cached": row["speedup_cached"],
            }
        )
    print_experiment(
        "E9 — recommendation: batched vs. maxscore vs. exhaustive (4 seeds, top-20)",
        rows,
        notes=(
            "identical rankings; pruned is the maxscore path, batched one "
            "recommend_many call, cached the LRU hit path"
        ),
    )
    assert all(row["pruned_ms"] > 0 for row in rows)
    largest = measure_recommend_ab(graphs[SIZES[-1]], repeats=1)
    assert largest["pruning"]["groups_skipped"] > 0  # θ actually bites at scale


@pytest.mark.benchmark(group="recommend-latency")
@pytest.mark.parametrize("size", SIZES)
def test_bench_recommend_by_graph_size(benchmark, graphs, size):
    index = SemanticFeatureIndex.build(graphs[size])
    engine = RecommendationEngine(
        graphs[size], feature_index=index, config=RankingConfig(recommendation_cache_size=0)
    )
    seeds = _seeds(graphs[size], index, 4)
    result = benchmark(engine.recommend_for_seeds, seeds)
    assert result.entities


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
    parser.add_argument("--seeds", type=int, default=4, help="seed entities per query")
    parser.add_argument("--repeats", type=int, default=5, help="repeats per mode")
    parser.add_argument("--top-entities", type=int, default=20, help="entities per query")
    parser.add_argument("--output", type=Path, default=None, help="write JSON report here")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help=(
            "fail unless the exhaustive/max-score latency ratio reaches "
            "this at the largest size"
        ),
    )
    parser.add_argument(
        "--min-batch-ratio",
        type=float,
        default=None,
        help=(
            "fail unless the unbatched/batched wall-clock ratio of the "
            "duplicated workload reaches this at the largest size"
        ),
    )
    args = parser.parse_args(argv)

    sizes = sorted({int(token) for token in args.sizes.split(",") if token.strip()})
    if not sizes:
        parser.error("--sizes must name at least one KG size")
    rows = []
    for size in sizes:
        graph = _build_graph(size)
        row = measure_recommend_ab(
            graph,
            repeats=args.repeats,
            seed_count=args.seeds,
            top_entities=args.top_entities,
        )
        rows.append(row)
        print(
            f"entities={row['entities']:>6}  exhaustive={row['exhaustive_mean_ms']:8.3f}ms  "
            f"pruned={row['pruned_mean_ms']:8.3f}ms  "
            f"kernel={row['kernel_ms']:8.3f}ms  "
            f"batched={row['batched_mean_ms']:8.3f}ms  cached={row['cached_mean_ms']:8.3f}ms  "
            f"speedup={row['speedup_pruned']:6.2f}x  "
            f"batch_ratio={row['batch_ratio']:5.2f}  cached={row['speedup_cached']:8.2f}x  "
            f"identical={row['identical']}"
        )

    report = {
        "bench": "recommend_latency",
        "description": (
            "recommendation latency (recommend_for_seeds): maxscore-pruned "
            "vs exhaustive vs LRU-cached, plus a batched arm"
        ),
        "config": {
            "sizes": sizes,
            "seeds": args.seeds,
            "repeats": args.repeats,
            "top_entities": args.top_entities,
            "kg_seed": 42,
            "kg_kwargs": KG_KWARGS,
            "cpu_cores": os.cpu_count() or 1,
        },
        "rows": rows,
    }
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")

    if any(not row["identical"] for row in rows):
        print("FAIL: max-score rankings diverged from exhaustive scoring", file=sys.stderr)
        return 1
    largest = rows[-1]
    if args.min_speedup is not None and largest["speedup_pruned"] < args.min_speedup:
        print(
            f"FAIL: speedup {largest['speedup_pruned']:.2f}x below "
            f"required {args.min_speedup:.2f}x at {largest['entities']} entities",
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
