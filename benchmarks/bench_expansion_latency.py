"""E10: traversal latency, columnar graph topology vs scalar walks.

``repro.kg.topology`` holds a per-epoch CSR adjacency over string-sorted
entity ordinals, and the traversal helpers route through
frontier-at-a-time kernels.  This bench times the two traversal stages
the exploration pipeline leans on as the random KG grows, each kernel
against its scalar reference:

* ``bfs``     — ``bfs_reachable`` (level-synchronous frontier gathers over
  both CSR directions) vs ``bfs_reachable_scalar`` (the FIFO per-edge
  Python walk);
* ``connect`` — ``connecting_entities`` (sorted-array intersect of the two
  one-hop neighbourhoods + CSR join) vs ``connecting_entities_scalar``.

Every pair is verified byte-identical *before* any timing.  The headline
``topology_ratio`` is stage-level — summed scalar wall-clock over summed
kernel wall-clock — together with the one-time topology ``build_ms`` and
the graph's traversal counters.

Run as a script to produce the machine-readable baseline::

    python benchmarks/bench_expansion_latency.py --sizes 200,2000 \
        --output BENCH_expansion_latency.json --min-topology-ratio 1.5

which is what the CI bench-smoke job does (gate 1.0 on the tiny smoke
leg, 1.5 at 2000 entities); the committed ``BENCH_expansion_latency.json``
at the repo root is the perf trajectory baseline for future PRs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

from repro.datasets import RandomKGConfig, build_random_kg  # noqa: E402
from repro.eval import Stopwatch, print_experiment  # noqa: E402
from repro.kg import (  # noqa: E402
    GraphTopology,
    bfs_reachable,
    bfs_reachable_scalar,
    connecting_entities,
    connecting_entities_scalar,
    graph_topology,
    traversal_stats,
)

SIZES = (200, 500, 1000, 2000)

#: Same hub-anchored generator parameters as the recommend bench: the
#: Zipf target skew produces the popular anchors whose dense one- and
#: two-hop neighbourhoods the traversal helpers actually chew through.
KG_KWARGS = {"target_skew": 1.5, "avg_out_degree": 8.0}

#: Traversal workload per repeat: BFS probes and connecting pairs.
PROBE_COUNT = 6
PAIR_COUNT = 8
MAX_HOPS = 2


def _build_graph(size: int):
    return build_random_kg(RandomKGConfig(num_entities=size, seed=42, **KG_KWARGS))


def _probes(graph, count: int) -> list[str]:
    entities = sorted(graph.entities())
    step = max(1, len(entities) // count)
    return entities[::step][:count]


def _pairs(graph, count: int) -> list[tuple[str, str]]:
    """Deterministic high-fan-in pairs: entities sharing popular anchors."""
    probes = _probes(graph, count * 2)
    return [(probes[i], probes[-(i + 1)]) for i in range(count)]


def measure_expansion_ab(graph, repeats: int = 5) -> dict[str, object]:
    """Kernel-vs-scalar traversal latency on one graph.

    Returns a row with per-stage means, the stage-level ``topology_ratio``
    and an ``identical`` flag confirming every pair agreed byte for byte
    before timing.
    """
    probes = _probes(graph, PROBE_COUNT)
    pairs = _pairs(graph, PAIR_COUNT)

    # One-time columnar build (the memoised per-epoch cost a serving
    # system pays once, or never after a snapshot attach).  The log epoch
    # it sorts is shared with the feature tables, so it is built first.
    graph.columns.epoch(len(graph))
    build_watch = Stopwatch()
    with build_watch.measure("build"):
        topology = graph_topology(graph)
    assert isinstance(topology, GraphTopology)

    # Identity before timing: every kernel must equal its scalar walk.
    identical = all(
        bfs_reachable(graph, probe, max_hops=MAX_HOPS)
        == bfs_reachable_scalar(graph, probe, max_hops=MAX_HOPS)
        for probe in probes
    )
    identical = identical and all(
        connecting_entities(graph, left, right)
        == connecting_entities_scalar(graph, left, right)
        for left, right in pairs
    )

    watch = Stopwatch()
    for _ in range(repeats):
        with watch.measure("bfs_scalar"):
            for probe in probes:
                bfs_reachable_scalar(graph, probe, max_hops=MAX_HOPS)
        with watch.measure("bfs_topology"):
            for probe in probes:
                bfs_reachable(graph, probe, max_hops=MAX_HOPS)
        with watch.measure("connect_scalar"):
            for left, right in pairs:
                connecting_entities_scalar(graph, left, right)
        with watch.measure("connect_topology"):
            for left, right in pairs:
                connecting_entities(graph, left, right)

    def mean(stage: str) -> float:
        return watch.stats(stage).as_dict()["mean_ms"]

    scalar_ms = mean("bfs_scalar") + mean("connect_scalar")
    topology_ms = mean("bfs_topology") + mean("connect_topology")
    counters = traversal_stats(graph)
    return {
        "entities": graph.num_entities(),
        "edges": graph.num_edges(),
        "repeats": repeats,
        "probes": len(probes),
        "pairs": len(pairs),
        "max_hops": MAX_HOPS,
        "identical": identical,
        "build_ms": build_watch.stats("build").as_dict()["mean_ms"],
        "bfs_scalar_ms": mean("bfs_scalar"),
        "bfs_topology_ms": mean("bfs_topology"),
        "connect_scalar_ms": mean("connect_scalar"),
        "connect_topology_ms": mean("connect_topology"),
        "scalar_ms": scalar_ms,
        "topology_ms": topology_ms,
        # > 1.0 = the CSR kernels beat the per-edge Python walks at equal
        # semantics.  Stage-level on purpose (see module docs).
        "topology_ratio": scalar_ms / topology_ms if topology_ms > 0 else float("inf"),
        "traversal": counters.as_dict(),
    }


# --------------------------------------------------------------------- #
# Pytest entry points
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def graphs():
    return {size: _build_graph(size) for size in SIZES}


def test_expansion_topology_vs_scalar_ab(graphs):
    """E10: kernels vs scalar walks — identical results, vectorized wall-clock."""
    rows = []
    for size in SIZES:
        row = measure_expansion_ab(graphs[size], repeats=3)
        assert row["identical"], f"topology/scalar traversal diverged at {size} entities"
        rows.append(
            {
                "entities": row["entities"],
                "build_ms": row["build_ms"],
                "bfs_scalar_ms": row["bfs_scalar_ms"],
                "bfs_topology_ms": row["bfs_topology_ms"],
                "connect_scalar_ms": row["connect_scalar_ms"],
                "connect_topology_ms": row["connect_topology_ms"],
                "topology_ratio": row["topology_ratio"],
            }
        )
    print_experiment(
        "E10 — traversal: CSR kernels vs scalar per-edge walks "
        f"({PROBE_COUNT} BFS probes, {PAIR_COUNT} connecting pairs)",
        rows,
        notes="identical results; topology_ratio is stage-level (bfs + connect)",
    )
    assert all(row["topology_ratio"] > 0 for row in rows)
    largest = measure_expansion_ab(graphs[SIZES[-1]], repeats=1)
    assert largest["traversal"]["bfs_queries"] > 0
    assert largest["traversal"]["connect_queries"] > 0


@pytest.mark.benchmark(group="expansion-latency")
@pytest.mark.parametrize("size", SIZES)
def test_bench_bfs_by_graph_size(benchmark, graphs, size):
    graph = graphs[size]
    probe = _probes(graph, 1)[0]
    graph_topology(graph)  # warm the per-epoch memo outside the timer
    result = benchmark(bfs_reachable, graph, probe, MAX_HOPS)
    assert result[probe] == 0


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
    parser.add_argument("--repeats", type=int, default=5, help="repeats per stage")
    parser.add_argument("--output", type=Path, default=None, help="write JSON report here")
    parser.add_argument(
        "--min-topology-ratio",
        type=float,
        default=None,
        help=(
            "fail unless the stage-level scalar/topology wall-clock ratio "
            "reaches this at the largest size (1.0 = the columnar kernels "
            "at-or-faster than the scalar walks; the kernels' per-call "
            "setup only amortises on non-trivial frontiers, so gate "
            "aggressive ratios on at-scale legs, not tiny smoke KGs)"
        ),
    )
    args = parser.parse_args(argv)

    sizes = sorted({int(token) for token in args.sizes.split(",") if token.strip()})
    if not sizes:
        parser.error("--sizes must name at least one KG size")
    rows = []
    for size in sizes:
        row = measure_expansion_ab(_build_graph(size), repeats=args.repeats)
        rows.append(row)
        print(
            f"entities={row['entities']:>6}  build={row['build_ms']:8.3f}ms  "
            f"bfs={row['bfs_scalar_ms']:8.3f}/{row['bfs_topology_ms']:8.3f}ms  "
            f"connect={row['connect_scalar_ms']:8.3f}/{row['connect_topology_ms']:8.3f}ms  "
            f"topology_ratio={row['topology_ratio']:5.2f}  "
            f"identical={row['identical']}"
        )

    report = {
        "bench": "expansion_latency",
        "description": (
            "graph traversal latency: CSR adjacency kernels vs scalar "
            "per-edge walks"
        ),
        "config": {
            "sizes": sizes,
            "repeats": args.repeats,
            "probes": PROBE_COUNT,
            "pairs": PAIR_COUNT,
            "max_hops": MAX_HOPS,
            "kg_seed": 42,
            "kg_kwargs": KG_KWARGS,
        },
        "rows": rows,
    }
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")

    if any(not row["identical"] for row in rows):
        print("FAIL: topology traversal diverged from the scalar walks", file=sys.stderr)
        return 1
    largest = rows[-1]
    if args.min_topology_ratio is not None and largest["topology_ratio"] < args.min_topology_ratio:
        print(
            f"FAIL: topology ratio {largest['topology_ratio']:.2f} below required "
            f"{args.min_topology_ratio:.2f} at {largest['entities']} entities",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
