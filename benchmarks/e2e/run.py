"""The end-to-end benchmark of the PivotE reproduction.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds N]
        [--entities N] [--trace 0|1] [--smoke] [--output FILE]

drives the default ``PivotEConfig`` through ``PivotEApi.handle`` (plus
``PivotE.save``/``load`` and the public write calls) as one closed-loop
client in one thread, over ``build_random_kg`` with the seed given.
Every metric is printed by name with its unit; the last line of a
workload's output is the one-line JSON result ``BENCHMARK.json``
describes.  README.md next to this file says what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"{SRC}/repro is missing: the benchmark drives the program in the repository's src/")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

# isort: off  (the sorter takes the local trace.py for the stdlib module of that name)
import numpy  # noqa: E402
from repro import PivotE, PivotEApi  # noqa: E402
from repro.datasets import RandomKGConfig, build_random_kg  # noqa: E402
from repro.search import parse_query  # noqa: E402
from trace import LayerTotals, Tracer, aggregate  # noqa: E402
from workloads import WORKLOADS, Client, Plan, make_plan, units_for, warm_up  # noqa: E402

WORK = HERE / ".work"
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

DEFAULT_ENTITIES = 5000
SMOKE_ENTITIES = 500
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

NOTES = """\
How the numbers interact: one thread, so nothing contends and a faster layer
saves at most its share of engine.handle_ms.  Recommendation-cache hits
(about 3 of a session's 11 requests) dilute every recommender-side gain on
explore_sessions and none on mutate_and_query, where each write empties both
caches.  cold_start reads come from the OS page cache."""


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #
@dataclass
class Bench:
    """One set-up system and the client that will drive it."""

    client: Client
    system: PivotE
    api: PivotEApi
    plan: Plan
    edges: int
    setup_s: float = 0.0
    directory: str | None = None
    snapshot_bytes: int = 0

    def close(self) -> None:
        self.system.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


def set_up(workload: str, seed: int, entities: int, units: int, tracer: Tracer | None) -> Bench:
    """Generate, build, warm up (and save, for ``cold_start``): ``setup_s``."""
    span = tracer.span if tracer is not None else nullcontext
    start = perf_counter()
    with span("datasets.generate"):
        graph = build_random_kg(
            RandomKGConfig(num_entities=entities, target_skew=1.5, avg_out_degree=8.0, seed=seed)
        )
    edges = graph.num_edges()
    with span("engine.build"):
        system = PivotE(graph)
    bench = Bench(Client(tracer), system, PivotEApi(system), make_plan(graph, workload, seed, units), edges)
    try:
        warm_up(bench.client, bench.api, bench.plan)
        if workload == "cold_start":
            WORK.mkdir(exist_ok=True)
            bench.directory = tempfile.mkdtemp(dir=WORK)
            if tracer is not None:
                tracer.request_id = None  # not part of the last warm-up request
            with span("engine.save"):
                system.save(bench.directory)
            bench.snapshot_bytes = sum(
                path.stat().st_size for path in Path(bench.directory).rglob("*") if path.is_file()
            )
    except BaseException:
        bench.close()
        raise
    bench.setup_s = perf_counter() - start
    return bench


# ---------------------------------------------------------------------- #
# Counters of the public stats tree
# ---------------------------------------------------------------------- #
def read_counters(system: PivotE) -> dict[str, float]:
    stats = system.stats().as_dict()
    search = stats["children"]["search"]
    recommend = stats["children"]["recommendation"]
    storage = stats.get("storage") or {}
    found = {
        "search.cache.hits": search["caches"]["results"]["hits"],
        "search.cache.misses": search["caches"]["results"]["misses"],
        "explore.cache.hits": recommend["caches"]["recommendations"]["hits"],
        "explore.cache.misses": recommend["caches"]["recommendations"]["misses"],
        "features.full_rebuilds": stats["rebuilds"]["full_rebuilds"],
        "features.delta_rebuilds": stats["rebuilds"]["delta_rebuilds"],
        "kg.topology_rebuilds": stats["traversal"]["rebuilds"],
        "storage.attached_bytes": storage.get("attached_bytes", 0),
        "storage.failures": storage.get("failures", 0),
        "exec.tasks_dispatched": search["executor"]["tasks_dispatched"] + recommend["executor"]["tasks_dispatched"],
        "exec.tasks_inlined": search["executor"]["tasks_inlined"] + recommend["executor"]["tasks_inlined"],
    }
    for prefix, counters in (
        ("topk.search.", search["pruning_counters"]["mlm"]),
        ("topk.rank.", recommend["pruning_counters"]["entity-ranker"]),
    ):
        for key, value in counters.items():
            found[prefix + key] = value
    return found


class Tally:
    """Sums the counters' increases over the timed region.

    ``restarted`` lists key prefixes whose counters began again from zero
    since the last observation: every one on a freshly loaded system
    (``("",)``), the search scorer's after a write (``add_entity`` makes a
    new scorer).
    """

    def __init__(self, system: PivotE) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self._last = read_counters(system)

    def observe(self, system: PivotE, restarted: tuple[str, ...] = ()) -> None:
        current = read_counters(system)
        for key, value in current.items():
            base = 0 if restarted and key.startswith(restarted) else self._last[key]
            self.totals[key] += value - base
        self._last = current

    def share(self, part: str, whole: str) -> float:
        return self.totals[part] / self.totals[whole] if self.totals[whole] else 0.0

    def hit_share(self, cache: str) -> float:
        hits, misses = self.totals[f"{cache}.cache.hits"], self.totals[f"{cache}.cache.misses"]
        return hits / (hits + misses) if hits + misses else 0.0


# ---------------------------------------------------------------------- #
# The oracle (outside the timed region)
# ---------------------------------------------------------------------- #
def run_oracle(bench: Bench) -> None:
    """Compare answers with the exhaustive reference scorers.

    Nine searches against ``mlm_scorer.search_exhaustive`` and ten
    recommendation states against ``recommend_for_seeds(exhaustive=True)``:
    identifiers and floats must be equal.  One allowance: when the
    entity list was cut at ``top_entities``, entities whose score equals the
    last one's may differ — at the recording commit the pruned ranker picks
    other members of a score tie that straddles the cut than the exhaustive
    ranker does (2 of 300 random states at 500 entities; see README.md).
    """
    client, system, plan = bench.client, bench.system, bench.plan
    for _, keywords, _ in plan.oracle_searches:
        client.attempted += 1
        hits = system.search(keywords)
        reference = system.search_engine.mlm_scorer.search_exhaustive(parse_query(keywords))
        if [(hit.entity_id, hit.score) for hit in hits] != [(doc.doc_id, doc.score) for doc in reference]:
            client.fail(f"oracle: search {keywords!r} differs from the exhaustive ranking")
    engine = system.recommendation_engine
    top_entities = system.config.ranking.top_entities
    for state in range(10):
        client.attempted += 1
        seeds = [plan.random_entities.pop() for _ in range(1 + state % 3)]
        domain = system.graph.dominant_type(plan.random_entities.pop()) if state % 2 else ""
        fast = engine.recommend_for_seeds(seeds, domain_type=domain)
        reference = engine.recommend_for_seeds(seeds, domain_type=domain, exhaustive=True)
        cut_score = reference.entities[-1].score if len(reference.entities) == top_entities else None
        same = (
            [entity.score for entity in fast.entities] == [entity.score for entity in reference.entities]
            and all(
                left.entity_id == right.entity_id
                for left, right in zip(fast.entities, reference.entities)
                if right.score != cut_score
            )
            and [(scored.feature.notation(), scored.score) for scored in fast.features]
            == [(scored.feature.notation(), scored.score) for scored in reference.features]
        )
        if not same:
            client.fail(f"oracle: recommendation for {seeds} in {domain!r} differs from the exhaustive one")


# ---------------------------------------------------------------------- #
# One pass over a workload
# ---------------------------------------------------------------------- #
@dataclass
class Pass:
    client: Client
    tally: Tally
    edges: int
    snapshot_bytes: int
    setup_s: float
    timed_s: float
    peak_rss_mb: float


def drive(
    workload: str, seed: int, entities: int, units: int,
    setups: int, tracer: Tracer | None, oracle: bool,
) -> Pass:
    """Set up ``setups`` times (keeping the last), run the timed region, check."""
    setup_times = []
    bench = None
    for _ in range(setups):
        if bench is not None:
            bench.close()
            bench = None
            gc.collect()
        bench = set_up(workload, seed, entities, units, tracer)
        setup_times.append(bench.setup_s)
    try:
        tally = Tally(bench.system)
        bench.client.start_timed()
        start = perf_counter()
        WORKLOADS[workload](
            bench.client, bench.system, bench.api, bench.plan,
            directory=bench.directory, checkpoint=tally.observe,
        )
        timed_s = perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.restore()
        if oracle:
            run_oracle(bench)
    finally:
        bench.close()
    return Pass(
        bench.client, tally, bench.edges, bench.snapshot_bytes,
        statistics.median(setup_times), timed_s, peak_rss_mb,
    )


def tail_latency(values: list[float]) -> float:
    """p95, robust to the shared box: the median of ten blocks' p95.

    A burst of interference from a neighbour lasts a few hundred requests
    and moved the plain p95 of identical runs by 11% here; taken per tenth
    of the stream, with the median block reported, it moved 2.5%.  A
    percentile needs ten samples beyond it: streams too short for ten such
    blocks use fewer, and ``cold_start``'s ten samples support only the
    median.
    """
    if len(values) < 200:
        return statistics.median(values)
    count = min(10, len(values) // 200)
    size = len(values) // count
    return statistics.median(
        statistics.quantiles(values[index * size:(index + 1) * size], n=20, method="inclusive")[-1]
        for index in range(count)
    )


def end_to_end_metrics(done: Pass) -> dict[str, float]:
    return {
        "setup_s": done.setup_s,
        "op_p50_ms": statistics.median(done.client.op_ms),
        "op_p95_ms": tail_latency(done.client.op_ms),
        "interaction_p50_ms": statistics.median(done.client.interaction_ms),
        "peak_rss_mb": done.peak_rss_mb,
    }


# ---------------------------------------------------------------------- #
# Per-layer metrics from the traced pass
# ---------------------------------------------------------------------- #
NONE = LayerTotals()


def layer_metrics(done: Pass, tracer: Tracer, untraced_p50_ms: float):
    """``(metrics, per-request-type table)`` of the traced pass's timed region."""
    client, tally = done.client, done.tally
    spans = [span for span in tracer.spans if span is not None]
    setup = aggregate(spans, {None: "setup"})["*"]
    table = aggregate(
        spans, {rid: kind for rid, kind in client.kinds.items() if rid >= client.first_timed}
    )

    def timed(name: str, kind: str = "*") -> LayerTotals:
        return table.get(kind, {}).get(name, NONE)

    def ms(name: str, kind: str = "*") -> float:
        return timed(name, kind).mean_ms()

    def setup_s(name: str) -> float:
        return setup.get(name, NONE).mean_ms() / 1000.0

    handle, candidates = timed("engine.handle"), timed("features.candidates")
    loads = sum(kind == "load" for kind in client.kinds.values())
    metrics = {
        "engine.handle_ms": handle.mean_ms(),
        "engine.self_ms": handle.mean_self_ms(),
        "engine.ops_per_s": handle.calls / handle.total_s if handle.calls else 0.0,
        "engine.build_s": setup_s("engine.build"),
        "datasets.generate_s": setup_s("datasets.generate"),
        "search.build_s": setup_s("search.build"),
        "features.build_s": setup_s("features.build"),
        "search.search_ms": ms("search.search"),
        "search.label_ms": ms("search.search", "search_label"),
        "search.rare_ms": ms("search.search", "search_rare"),
        "search.broad_ms": ms("search.search", "search_broad"),
        "search.cache_hit_share": tally.hit_share("search"),
        "topk.search_pruned_share": tally.share("topk.search.candidates_pruned", "topk.search.candidates_total"),
        "topk.search_rescored_per_query": tally.share("topk.search.rescored", "topk.search.queries"),
        "explore.recommend_ms": ms("explore.recommend"),
        "explore.cache_hit_share": tally.hit_share("explore"),
        "expansion.expand_ms": ms("expansion.expand"),
        "expansion.self_ms": timed("expansion.expand").mean_self_ms(),
        "ranking.sf_rank_ms": ms("ranking.sf_rank"),
        "features.candidates_ms": candidates.mean_ms(),
        "features.candidates_per_call": candidates.count / candidates.calls if candidates.calls else 0.0,
        "expansion.restrict_ms": ms("expansion.restrict"),
        "ranking.entity_rank_ms": ms("ranking.entity_rank"),
        "topk.rank_pruned_share": tally.share("topk.rank.candidates_pruned", "topk.rank.candidates_total"),
        "topk.rank_groups_skipped_share": tally.share("topk.rank.groups_skipped", "topk.rank.groups_total"),
        "topk.rank_rescored_per_query": tally.share("topk.rank.rescored", "topk.rank.queries"),
        "ranking.correlation_ms": ms("ranking.correlation"),
        "viz.matrix_ms": ms("viz.matrix"),
        "viz.export_ms": ms("viz.export"),
        "kg.mutate_ms": ms("kg.mutate"),
        "index.add_entity_ms": ms("index.add_entity"),
        "features.refresh_ms": ms("features.refresh"),
        "features.columnar_tables_ms": ms("features.columnar_tables"),
        "index.columnar_view_ms": ms("index.columnar_view"),
        "features.delta_rebuilds": tally.totals["features.delta_rebuilds"],
        "features.full_rebuilds": tally.totals["features.full_rebuilds"],
        "kg.topology_ms": ms("kg.topology"),
        "kg.topology_rebuilds": tally.totals["kg.topology_rebuilds"],
        "search.first_after_write_ms": ms("engine.handle", "first_search_after_write"),
        "explore.first_after_write_ms": ms("engine.handle", "first_recommend_after_write"),
        "engine.load_ms": ms("engine.load"),
        "storage.load_system_ms": ms("storage.load_system"),
        "storage.load_graph_ms": ms("storage.load_graph"),
        "storage.restore_index_ms": ms("storage.restore_index"),
        "storage.restore_features_ms": ms("storage.restore_features"),
        "storage.restore_topology_ms": ms("storage.restore_topology"),
        "search.restore_ms": ms("search.restore"),
        "features.restore_ms": ms("features.restore"),
        "engine.first_search_ms": ms("engine.handle", "first_search"),
        "engine.first_recommend_ms": ms("engine.handle", "first_recommend"),
        "storage.attached_mb": tally.totals["storage.attached_bytes"] / loads / 2**20 if loads else 0.0,
        "storage.attach_failures": tally.totals["storage.failures"],
        "storage.save_system_ms": setup_s("storage.save_system") * 1000.0,
        "storage.snapshot_mb": done.snapshot_bytes / 2**20,
        "exec.tasks_dispatched": tally.totals["exec.tasks_dispatched"],
        "exec.tasks_inlined": tally.totals["exec.tasks_inlined"],
        "trace.overhead_share": (statistics.median(client.op_ms) - untraced_p50_ms) / untraced_p50_ms,
    }
    return metrics, table


def separation_checks(workload: str, metrics: dict[str, float], table) -> dict[str, bool]:
    """What must hold for the workloads to stress the layers they claim to."""
    everything = table.get("*", {})
    recommender_side = ("explore.", "expansion.", "ranking.", "features.", "viz.")
    checks = {
        "exec layer idle": metrics["exec.tasks_dispatched"] == 0,
        "self times add up to engine.handle within 5%": all(
            abs(sum(totals.self_s for totals in by_name.values()) - by_name["engine.handle"].total_s)
            <= 0.05 * by_name["engine.handle"].total_s
            for kind, by_name in table.items()
            if kind != "*" and "engine.handle" in by_name and "engine.load" not in by_name
        ),
    }
    if workload != "cold_start":
        checks["no storage spans in the timed region"] = not any(
            name.startswith("storage.") for name in everything
        )
    else:
        checks["every snapshot component attached"] = metrics["storage.attach_failures"] == 0
    if workload != "mutate_and_query":
        checks["no rebuilds in the timed region"] = (
            metrics["features.full_rebuilds"] + metrics["features.delta_rebuilds"]
            + metrics["kg.topology_rebuilds"] == 0
        )
    if workload == "search_keywords":
        checks["no recommender-side calls"] = not any(name.startswith(recommender_side) for name in everything)
        checks["search cache never hits"] = metrics["search.cache_hit_share"] == 0
    if workload == "explore_sessions":
        checks["search cache hits"] = metrics["search.cache_hit_share"] > 0
        checks["search is at most 20% of session time"] = (
            everything["search.search"].total_s <= 0.2 * everything["engine.handle"].total_s
        )
    return checks


# ---------------------------------------------------------------------- #
# One run of one workload
# ---------------------------------------------------------------------- #
def measure(workload: str, seed: int, seconds: float, entities: int, trace: bool) -> dict[str, object]:
    units = units_for(workload, seconds)
    try:
        done = drive(workload, seed, entities, units, 1 if trace else SETUP_REPEATS, None, oracle=not trace)
        report: dict[str, object] = {
            "workload": workload, "seed": seed, "seconds": seconds, "units": units,
            "entities": entities, "edges": done.edges, "timed_s": done.timed_s,
            "cpu_cores": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "samples": {"op": len(done.client.op_ms), "interaction": len(done.client.interaction_ms)},
            "result_digest": done.client.result_digest(),
            "end_to_end": end_to_end_metrics(done),
        }
        if trace:
            untraced, tracer = done, Tracer()
            tracer.install()
            try:
                done = drive(workload, seed, entities, units, 1, tracer, oracle=True)
            finally:
                tracer.restore()
            metrics, table = layer_metrics(done, tracer, report["end_to_end"]["op_p50_ms"])
            checks = separation_checks(workload, metrics, table)
            checks["tracing leaves the answers unchanged"] = (
                done.client.result_digest() == untraced.client.result_digest()
            )
            for name, held in checks.items():
                done.client.attempted += 1
                if not held:
                    done.client.fail(f"check failed: {name}")
            report["per_layer"] = metrics
            report["checks"] = checks
            report["where_the_time_goes"] = {
                kind: {
                    name: {"calls": t.calls, "total_ms": t.total_s * 1000.0, "self_ms": t.self_s * 1000.0}
                    for name, t in sorted(by_name.items())
                }
                for kind, by_name in sorted(table.items())
            }
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    client = done.client
    report.update(
        attempted=client.attempted, failed=len(client.failures),
        failed_share=len(client.failures) / client.attempted, failures=client.failures[:10],
    )
    return report


def print_report(report: dict[str, object]) -> None:
    print(
        f"== {report['workload']}  seed={report['seed']}  entities={report['entities']} "
        f"edges={report['edges']}  units={report['units']}  cores={report['cpu_cores']}  "
        f"python={report['python']} numpy={report['numpy']}"
    )
    samples = report["samples"]
    print(f"   samples: {samples['op']} ops, {samples['interaction']} interactions in {report['timed_s']:.1f} s")
    for name, value in report["end_to_end"].items():
        print(f"   {name:34s} {value:14.4f} {END_TO_END[name]}")
    print(f"   {'failed_share':34s} {report['failed_share']:14.4f} ({report['failed']} of {report['attempted']})")
    for failure in report["failures"]:
        print(f"   FAILED {failure}")
    print(f"   result_digest {report['result_digest']}")
    if "per_layer" not in report:
        return
    for name, value in report["per_layer"].items():
        print(f"   {name:34s} {value:14.4f} {PER_LAYER[name]}")
    print("   where the time goes: self time per request type, ms per request (share of engine.handle)")
    for kind, by_name in report["where_the_time_goes"].items():
        if kind == "*" or "engine.handle" not in by_name:
            continue
        handle = by_name["engine.handle"]
        parts = sorted(by_name.items(), key=lambda item: -item[1]["self_ms"])[:6]
        print(
            f"   {kind:28s} n={handle['calls']:<6d} handle={handle['total_ms'] / handle['calls']:9.3f} | "
            + "  ".join(
                f"{name} {t['self_ms'] / handle['calls']:.3f} ({t['self_ms'] / handle['total_ms']:.0%})"
                for name, t in parts
            )
        )
    print("   " + NOTES.replace("\n", "\n   "))


def result_line(report: dict[str, object]) -> str:
    """The one-line JSON result ``BENCHMARK.json`` describes."""
    traced = "per_layer" in report
    units, values = (PER_LAYER, report["per_layer"]) if traced else (END_TO_END, report["end_to_end"])
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: each of the four, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help=f"length of the timed region (default {SPEC['run_seconds']})")
    parser.add_argument("--entities", type=int, help=f"size of the random KG (default {DEFAULT_ENTITIES})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: also run the traced pass and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_ENTITIES} entities and a tenth of the requests")
    parser.add_argument("--output", help="append this run's full report to a JSON list in FILE")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes decide set and dict iteration order, and with it memory
        # access patterns: identical runs differed by 8% in op_p50_ms with
        # hash randomisation and by 1.6% without.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, __file__, *(sys.argv[1:] if argv is None else argv)])

    if args.workload is None:
        forwarded = sys.argv[1:] if argv is None else argv
        return max(
            subprocess.run([sys.executable, __file__, "--workload", workload["name"], *forwarded]).returncode
            for workload in SPEC["workloads"]
        )

    seconds = args.seconds or (SPEC["run_seconds"] / 10 if args.smoke else SPEC["run_seconds"])
    entities = args.entities or (SMOKE_ENTITIES if args.smoke else DEFAULT_ENTITIES)
    report = measure(args.workload, args.seed, seconds, entities, bool(args.trace))
    print_report(report)
    if args.output:
        path = Path(args.output)
        runs = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps([*runs, report], indent=1))
    for values in (report["end_to_end"], report.get("per_layer", {})):
        if not all(math.isfinite(value) for value in values.values()):
            raise SystemExit(f"a metric is not finite: {values}")
    print(result_line(report))
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
