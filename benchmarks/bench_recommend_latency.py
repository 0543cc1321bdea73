"""E9: latency of the §2.3 recommendation pipeline, accumulator vs seed path.

PR 2 rebuilt the two-stage recommendation model around the type-grouped
accumulator decomposition of ``p(pi | e)`` (``repro/ranking/ranking_support.py``)
with an epoch-keyed LRU recommendation cache on top.  This bench measures
``RecommendationEngine.recommend_for_seeds`` — feature ranking, entity
ranking and correlation-matrix assembly — in a three-way A/B as the random
KG grows:

* ``exhaustive``  — the seed scoring path (``rank_exhaustive()`` on both
  rankers, cell-by-cell matrix assembly);
* ``accumulator`` — the fast path with ``pruning="off"`` and the
  recommendation cache disabled;
* ``pruned``      — the fast path with threshold pruning
  (``pruning="maxscore"``, the default since PR 3: whole dominant-type
  groups are skipped once their base score plus correction bound cannot
  reach the live θ — see ``repro.topk``), cache disabled;
* ``blockmax``    — threshold pruning with per-type *chunked* correction
  bounds (``pruning="blockmax"``): groups are killed or retired at every
  feature-chunk boundary mid-walk, cache disabled;
* ``cached``      — the fast path served from a warm LRU cache.

Since PR 5 the A/B carries two execution-layer arms as well (see
``repro.exec``): ``sharded`` fans the maxscore entity accumulator out
over 4 entity shards with the cross-shard θ broadcast, and ``batched``
answers a ×2-duplicated batch of seed sets through one cache-free
``recommend_many`` call against the same requests issued one at a time
(``unbatched`` — the in-batch canonical-key dedupe is the amortisation).

Since PR 8 the ranker's default arms score through the columnar feature
tables and the ``columnar_rank`` kernel (``repro.features.columnar`` +
``repro.topk.kernels``); the ``nocolumnar`` arm (``columnar=False``) runs
the request's object code.  Since PR 15 the default arm keeps the *whole*
request in ordinal space over those tables — feature ranking, candidate
tally, kernel, exact epilogue — so the two arms differ in every stage
but the correlation matrix, and ``columnar_request_ratio``
(``nocolumnar_mean_ms / pruned_mean_ms``) is the whole-request
columnar-vs-scalar number ROADMAP item 2 asks for.  ``columnar_ratio``
still isolates the *ranking stage itself* — the scalar
``score_entities_pruned`` walk over ``build_ranker_inputs`` +
``columnar_rank`` on the same candidates and scored features.  The kernel's setup
cost (ordinal resolution, input assembly) only amortises on large
candidate pools, so that ratio is expected below 1.0 on tiny smoke KGs
and above it at scale.
The ``parallel`` arm — the sharded configuration with
``executor="process"`` — now genuinely fans out: workers attach the
shared-memory feature-table snapshot (``repro.exec.shm``), rebuild the
per-query kernel inputs zero-copy and run ``columnar_rank`` remotely
with the cross-process θ slab.  ``parallel_ratio`` is pruned-serial
over process wall-clock; it only exceeds 1.0 on multi-core hosts
(``cpu_cores`` is recorded so gates can stay honest on single-core CI
runners).

The A/B verifies that both scoring paths return identical entity and
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

#: Entity shards of the sharded A/B arm (see ``repro.exec``).
SHARD_COUNT = 4

#: Worker processes of the ``parallel`` arm: capped by the shard count
#: (one worker per dispatched shard is the useful maximum) but at least
#: two so the pool actually fans out even on small CI runners.
PROCESS_WORKERS = min(SHARD_COUNT, max(2, os.cpu_count() or 1))

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


def _walk_stage_ab(
    engine: RecommendationEngine,
    seeds: list[str],
    top_entities: int,
    repeats: int,
) -> tuple[dict[str, float], dict[str, float]]:
    """Ranking-stage A/B: scalar per-holder walk vs the columnar kernel.

    Both arms score the same candidates against the same scored features
    on the same engine — only the accumulator implementation differs —
    so the ratio isolates the kernel from the other pipeline stages.
    Each arm gets its input the way its request path hands it over: the
    scalar walk a list of identifiers, the kernel the candidate and
    feature ordinals the tally produced (``EntityRanker._rank_arrays``
    never sees an identifier).
    """
    ranker = engine.expander.entity_ranker
    support = ranker.feature_ranker.probability_model.support()
    scored_features = ranker.feature_ranker.rank(seeds)
    candidates = ranker.candidates(seeds, scored_features)
    tables = support.columnar_tables()
    candidate_ordinals = tables.entity_ordinals(candidates)
    feature_ordinals = tables.feature_ordinals([scored.feature.key for scored in scored_features])
    relevance = [scored.score for scored in scored_features]
    stats = PruningStats()

    def kernel() -> None:
        inputs = build_ranker_inputs(
            tables, feature_ordinals, relevance, candidate_ordinals,
            support.epsilon, type_smoothing=support.type_smoothing,
        )
        columnar_rank(inputs, top_entities, stats)

    # Warm both arms once so neither pays one-time costs in the loop.
    support.score_entities_pruned(candidates, scored_features, top_entities, stats)
    kernel()

    watch = Stopwatch()
    for _ in range(max(repeats * 20, 40)):  # the stage is sub-millisecond
        with watch.measure("walk_scalar"):
            support.score_entities_pruned(candidates, scored_features, top_entities, stats)
        with watch.measure("walk_columnar"):
            kernel()
    return (
        watch.stats("walk_scalar").as_dict(),
        watch.stats("walk_columnar").as_dict(),
    )


def measure_recommend_ab(
    graph,
    repeats: int = 5,
    seed_count: int = 4,
    top_entities: int = 20,
) -> dict[str, object]:
    """Accumulator-vs-exhaustive (and cached) recommendation latency.

    Returns a row with mean/p95 latencies per mode, the speedup factors and
    an ``identical`` flag confirming both pipelines ranked identically.
    """
    index = SemanticFeatureIndex.build(graph)
    cached_engine = RecommendationEngine(graph, feature_index=index)
    plain_engine = RecommendationEngine(
        graph,
        feature_index=index,
        config=RankingConfig(recommendation_cache_size=0, pruning="off"),
    )
    pruned_engine = RecommendationEngine(
        graph,
        feature_index=index,
        config=RankingConfig(recommendation_cache_size=0, pruning="maxscore"),
    )
    blockmax_engine = RecommendationEngine(
        graph,
        feature_index=index,
        config=RankingConfig(recommendation_cache_size=0, pruning="blockmax"),
    )
    #: The columnar A/B: the same maxscore walk through the scalar
    #: per-holder loops.  pruned/nocolumnar is the vectorization payoff.
    nocolumnar_engine = RecommendationEngine(
        graph,
        feature_index=index,
        config=RankingConfig(recommendation_cache_size=0, pruning="maxscore", columnar=False),
    )
    #: The sharded arm: the maxscore entity accumulator fanned out over
    #: SHARD_COUNT entity shards with the cross-shard θ broadcast.
    sharded_engine = RecommendationEngine(
        graph,
        feature_index=index,
        config=RankingConfig(recommendation_cache_size=0, shards=SHARD_COUNT),
    )
    #: The parallel arm (PR 8): the same sharded fan-out with worker
    #: *processes* attached to the shared-memory feature-table snapshot,
    #: running ``columnar_rank`` remotely — byte-identical rankings,
    #: real core parallelism where the host has the cores.
    parallel_engine = RecommendationEngine(
        graph,
        feature_index=index,
        config=RankingConfig(
            recommendation_cache_size=0,
            shards=SHARD_COUNT,
            executor="process",
            workers=PROCESS_WORKERS,
        ),
    )
    seeds = _seeds(graph, index, seed_count)
    #: Batch workload: three overlapping seed sets, each submitted twice
    #: (real exploration sessions revisit query states), answered by one
    #: cache-free recommend_many call vs the same requests one at a time.
    seed_pool = _seeds(graph, index, seed_count + 2)
    batch_inputs = [seeds, seed_pool[1 : seed_count + 1], seed_pool[2 : seed_count + 2]]
    batch_inputs = batch_inputs + batch_inputs

    fast = plain_engine.recommend_for_seeds(seeds, top_entities=top_entities)
    slow = plain_engine.recommend_for_seeds(seeds, top_entities=top_entities, exhaustive=True)
    pruned_result = pruned_engine.recommend_for_seeds(seeds, top_entities=top_entities)
    blockmax_result = blockmax_engine.recommend_for_seeds(seeds, top_entities=top_entities)
    nocolumnar_result = nocolumnar_engine.recommend_for_seeds(seeds, top_entities=top_entities)
    sharded_result = sharded_engine.recommend_for_seeds(seeds, top_entities=top_entities)
    parallel_result = parallel_engine.recommend_for_seeds(seeds, top_entities=top_entities)
    batched_results = pruned_engine.recommend_many(batch_inputs, top_entities=top_entities)
    identical = (
        _identical(fast, slow)
        and _identical(pruned_result, slow)
        and _identical(blockmax_result, slow)
        and _identical(nocolumnar_result, slow)
        and _identical(sharded_result, slow)
        and _identical(parallel_result, slow)
        and all(
            _identical(
                payload,
                pruned_engine.recommend_for_seeds(batch_seeds, top_entities=top_entities),
            )
            for payload, batch_seeds in zip(batched_results, batch_inputs)
        )
    )
    cached_engine.recommend_for_seeds(seeds, top_entities=top_entities)  # warm the LRU
    walk_scalar, walk_columnar = _walk_stage_ab(pruned_engine, seeds, top_entities, repeats)

    watch = Stopwatch()
    for _ in range(repeats):
        with watch.measure("exhaustive"):
            plain_engine.recommend_for_seeds(seeds, top_entities=top_entities, exhaustive=True)
        with watch.measure("accumulator"):
            plain_engine.recommend_for_seeds(seeds, top_entities=top_entities)
        with watch.measure("pruned"):
            pruned_engine.recommend_for_seeds(seeds, top_entities=top_entities)
        with watch.measure("blockmax"):
            blockmax_engine.recommend_for_seeds(seeds, top_entities=top_entities)
        with watch.measure("nocolumnar"):
            nocolumnar_engine.recommend_for_seeds(seeds, top_entities=top_entities)
        with watch.measure("sharded"):
            sharded_engine.recommend_for_seeds(seeds, top_entities=top_entities)
        with watch.measure("parallel"):
            parallel_engine.recommend_for_seeds(seeds, top_entities=top_entities)
        with watch.measure("batched"):
            pruned_engine.recommend_many(batch_inputs, top_entities=top_entities)
        with watch.measure("unbatched"):
            for batch_seeds in batch_inputs:
                pruned_engine.recommend_for_seeds(batch_seeds, top_entities=top_entities)
        with watch.measure("cached"):
            cached_engine.recommend_for_seeds(seeds, top_entities=top_entities)
    exhaustive = watch.stats("exhaustive").as_dict()
    accumulator = watch.stats("accumulator").as_dict()
    pruned_stats = watch.stats("pruned").as_dict()
    blockmax_stats = watch.stats("blockmax").as_dict()
    nocolumnar_stats = watch.stats("nocolumnar").as_dict()
    sharded_stats = watch.stats("sharded").as_dict()
    parallel_stats = watch.stats("parallel").as_dict()
    executor_record = parallel_engine.stats().executor
    parallel_engine.close()  # unlink the published feature-table segment
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
        "accumulator_mean_ms": accumulator["mean_ms"],
        "accumulator_p95_ms": accumulator["p95_ms"],
        "pruned_mean_ms": pruned_stats["mean_ms"],
        "pruned_p95_ms": pruned_stats["p95_ms"],
        "blockmax_mean_ms": blockmax_stats["mean_ms"],
        "blockmax_p95_ms": blockmax_stats["p95_ms"],
        "nocolumnar_mean_ms": nocolumnar_stats["mean_ms"],
        "nocolumnar_p95_ms": nocolumnar_stats["p95_ms"],
        "sharded_mean_ms": sharded_stats["mean_ms"],
        "sharded_p95_ms": sharded_stats["p95_ms"],
        "shards": SHARD_COUNT,
        "parallel_mean_ms": parallel_stats["mean_ms"],
        "parallel_p95_ms": parallel_stats["p95_ms"],
        "workers": PROCESS_WORKERS,
        "cpu_cores": os.cpu_count() or 1,
        # Per-request means of the ×2-duplicated batch workload.
        "batched_mean_ms": batched["mean_ms"] / len(batch_inputs),
        "unbatched_mean_ms": unbatched["mean_ms"] / len(batch_inputs),
        "cached_mean_ms": cached["mean_ms"],
        "cached_p95_ms": cached["p95_ms"],
        "speedup_accumulator": _speedup(accumulator["mean_ms"]),
        "speedup_pruned": _speedup(pruned_stats["mean_ms"]),
        "speedup_blockmax": _speedup(blockmax_stats["mean_ms"]),
        "speedup_nocolumnar": _speedup(nocolumnar_stats["mean_ms"]),
        "speedup_sharded": _speedup(sharded_stats["mean_ms"]),
        "speedup_cached": _speedup(cached["mean_ms"]),
        # Ranking-stage means: the scalar walk vs the columnar kernel on
        # identical candidates/features (see _walk_stage_ab).
        "walk_scalar_ms": walk_scalar["mean_ms"],
        "walk_columnar_ms": walk_columnar["mean_ms"],
        # > 1.0 = the columnar ranker kernel beats the scalar per-holder
        # walk at equal semantics.  Stage-level on purpose: the pipeline
        # around it is arm-independent, so end-to-end means only dilute
        # the comparison (nocolumnar_mean_ms records that view anyway).
        "columnar_ratio": (
            walk_scalar["mean_ms"] / walk_columnar["mean_ms"]
            if walk_columnar["mean_ms"] > 0
            else float("inf")
        ),
        # Whole requests: the object code (columnar=False) over the
        # ordinal-space path, everything from seeds to matrix included.
        "columnar_request_ratio": (
            nocolumnar_stats["mean_ms"] / pruned_stats["mean_ms"]
            if pruned_stats["mean_ms"] > 0
            else float("inf")
        ),
        # 1.0 = the 4-shard arm at 1-shard wall-clock; > 1.0 = ahead.
        "sharded_ratio": (
            pruned_stats["mean_ms"] / sharded_stats["mean_ms"]
            if sharded_stats["mean_ms"] > 0
            else float("inf")
        ),
        # Serial pruned over the process arm: > 1.0 = real core
        # parallelism paid off (only expected on multi-core hosts).
        "parallel_ratio": (
            pruned_stats["mean_ms"] / parallel_stats["mean_ms"]
            if parallel_stats["mean_ms"] > 0
            else float("inf")
        ),
        "executor_parallel": None if executor_record is None else executor_record.as_dict(),
        # > 1.0 = one recommend_many call beats the request loop.
        "batch_ratio": (
            unbatched["mean_ms"] / batched["mean_ms"]
            if batched["mean_ms"] > 0
            else float("inf")
        ),
        "pruning": pruned_engine.pruning_info(),
        "pruning_blockmax": blockmax_engine.pruning_info(),
        "pruning_sharded": sharded_engine.pruning_info(),
    }


# --------------------------------------------------------------------- #
# Pytest entry points
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def graphs():
    return {size: _build_graph(size) for size in SIZES}


def test_recommend_accumulator_vs_exhaustive_ab(graphs):
    """E9: the recommendation A/B — identical rankings, lower latency."""
    rows = []
    for size in SIZES:
        row = measure_recommend_ab(graphs[size], repeats=3)
        assert row["identical"], f"pruned/accumulator recommendation diverged at {size} entities"
        rows.append(
            {
                "entities": row["entities"],
                "exhaustive_ms": row["exhaustive_mean_ms"],
                "accumulator_ms": row["accumulator_mean_ms"],
                "pruned_ms": row["pruned_mean_ms"],
                "blockmax_ms": row["blockmax_mean_ms"],
                "nocolumnar_ms": row["nocolumnar_mean_ms"],
                "sharded_ms": row["sharded_mean_ms"],
                "parallel_ms": row["parallel_mean_ms"],
                "batched_ms": row["batched_mean_ms"],
                "cached_ms": row["cached_mean_ms"],
                "speedup": row["speedup_accumulator"],
                "speedup_pruned": row["speedup_pruned"],
                "speedup_blockmax": row["speedup_blockmax"],
                "columnar_ratio": row["columnar_ratio"],
                "columnar_request_ratio": row["columnar_request_ratio"],
                "sharded_ratio": row["sharded_ratio"],
                "parallel_ratio": row["parallel_ratio"],
                "batch_ratio": row["batch_ratio"],
                "speedup_cached": row["speedup_cached"],
            }
        )
    print_experiment(
        "E9 — recommendation: sharded/batched vs. blockmax vs. maxscore vs. "
        "accumulator vs. exhaustive (4 seeds, top-20)",
        rows,
        notes=(
            "identical rankings; pruned is the maxscore path, sharded the 4-shard "
            "fan-out, batched one recommend_many call, cached the LRU hit path"
        ),
    )
    assert all(row["pruned_ms"] > 0 for row in rows)
    largest = measure_recommend_ab(graphs[SIZES[-1]], repeats=1)
    assert largest["pruning"]["groups_skipped"] > 0  # θ actually bites at scale
    # The shard workers' merged counters: one logical query per request,
    # with the candidate partition summing exactly (audit satellite).
    assert largest["pruning_sharded"]["queries"] == largest["pruning"]["queries"]
    assert largest["pruning_sharded"]["candidates_total"] == largest["pruning"]["candidates_total"]
    # The chunked bounds must actually abandon per-type chunks mid-walk.
    assert largest["pruning_blockmax"]["blocks_skipped"] > 0


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
        help="fail unless the largest size reaches this accumulator speedup",
    )
    parser.add_argument(
        "--min-pruned-ratio",
        type=float,
        default=None,
        help=(
            "fail unless accumulator_mean_ms over each pruned arm's mean "
            "(maxscore and blockmax) reaches this at the largest size "
            "(1.0 = pruned at-or-faster than plain accumulator)"
        ),
    )
    parser.add_argument(
        "--min-sharded-ratio",
        type=float,
        default=None,
        help=(
            "fail unless pruned_mean_ms over the 4-shard arm's mean reaches "
            "this at the largest size (1.0 = sharded at-or-faster than the "
            "1-shard serial path)"
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
        "--min-columnar-ratio",
        type=float,
        default=None,
        help=(
            "fail unless the ranking-stage walk_scalar/walk_columnar ratio "
            "reaches this at the largest size (1.0 = the vectorized ranker "
            "kernel at-or-faster than the scalar per-holder walk; the "
            "kernel's setup cost only amortises on large candidate pools, "
            "so gate this on at-scale legs, not tiny smoke KGs)"
        ),
    )
    parser.add_argument(
        "--min-columnar-request-ratio",
        type=float,
        default=None,
        help=(
            "fail unless nocolumnar_mean_ms over pruned_mean_ms — whole "
            "recommend_for_seeds requests, object code over the "
            "ordinal-space path — reaches this at the largest size"
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
            f"accumulator={row['accumulator_mean_ms']:8.3f}ms  pruned={row['pruned_mean_ms']:8.3f}ms  "
            f"blockmax={row['blockmax_mean_ms']:8.3f}ms  "
            f"nocolumnar={row['nocolumnar_mean_ms']:8.3f}ms  "
            f"sharded={row['sharded_mean_ms']:8.3f}ms  "
            f"parallel={row['parallel_mean_ms']:8.3f}ms  "
            f"batched={row['batched_mean_ms']:8.3f}ms  cached={row['cached_mean_ms']:8.3f}ms  "
            f"speedup={row['speedup_accumulator']:6.2f}x  pruned={row['speedup_pruned']:6.2f}x  "
            f"blockmax={row['speedup_blockmax']:6.2f}x  "
            f"columnar_ratio={row['columnar_ratio']:5.2f}  "
            f"columnar_request_ratio={row['columnar_request_ratio']:5.2f}  "
            f"shard_ratio={row['sharded_ratio']:5.2f}  "
            f"parallel_ratio={row['parallel_ratio']:5.2f}  "
            f"batch_ratio={row['batch_ratio']:5.2f}  cached={row['speedup_cached']:8.2f}x  "
            f"identical={row['identical']}"
        )

    report = {
        "bench": "recommend_latency",
        "description": (
            "recommendation latency (recommend_for_seeds): blockmax vs "
            "maxscore-pruned vs type-grouped accumulator vs exhaustive vs "
            "LRU-cached"
        ),
        "config": {
            "sizes": sizes,
            "seeds": args.seeds,
            "repeats": args.repeats,
            "top_entities": args.top_entities,
            "kg_seed": 42,
            "kg_kwargs": KG_KWARGS,
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
        for arm in ("pruned", "blockmax"):
            mean_ms = largest[f"{arm}_mean_ms"]
            ratio = largest["accumulator_mean_ms"] / mean_ms if mean_ms > 0 else float("inf")
            if ratio < args.min_pruned_ratio:
                print(
                    f"FAIL: {arm}/accumulator ratio {ratio:.2f} below required "
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
    if args.min_columnar_ratio is not None and largest["columnar_ratio"] < args.min_columnar_ratio:
        print(
            f"FAIL: columnar ratio {largest['columnar_ratio']:.2f} below required "
            f"{args.min_columnar_ratio:.2f} at {largest['entities']} entities",
            file=sys.stderr,
        )
        return 1
    if (
        args.min_columnar_request_ratio is not None
        and largest["columnar_request_ratio"] < args.min_columnar_request_ratio
    ):
        print(
            f"FAIL: columnar request ratio {largest['columnar_request_ratio']:.2f} below "
            f"required {args.min_columnar_request_ratio:.2f} at {largest['entities']} entities",
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
