"""Cold-start latency — attaching a durable snapshot vs rebuilding from it.

The durable storage tier's reason to exist: a process that cold-starts
from ``PivotE.save(dir)`` should reach serving readiness *faster* than
one that rebuilds the whole system from the knowledge graph.  The graph
itself is a segment too (``graph-triples``: its column log), adopted
without replaying a triple, so the two paths a fresh process can take
from one system directory are:

* ``rebuild_ms`` — adopt the graph (``load_graph``) and rebuild every
  derived tier in RAM (``PivotE(graph)``: document construction off the
  graph's row reads, one analysis per distinct string and the sorts that
  make the posting CSRs and the feature tables a load would adopt);
* ``load_ms``    — attach everything (``PivotE.load``): the graph's
  column log, grouped by subject, object and type as it is adopted, the
  posting columns, the feature tables and the topology as they were
  saved.

Both are best of ``--repeats`` interleaved attempts (the page cache is
warm after the first, which is exactly the serving-fleet scenario: N
processes cold-start from the same files);
``coldstart_ratio = rebuild_ms / load_ms`` — above 1.0 the attach path
wins.  ``save_ms`` (one ``PivotE.save``) rides along for context.

``load`` defers work: triple objects until a caller iterates them,
feature rows until a request touches them.  Three more columns time
``load`` *plus a first use*, so the deferral can be compared with a build
that paid everything up front: ``load_lookup_ms`` (load → entity
profile: reads the entity's rows), ``load_write_read_ms`` (load → four
``graph.add`` + ``add_entity`` → search → select: appends rows, then
sorts the feature tables of the written epoch out of the column log,
since decoded tables have no log epoch to derive them from) and
``load_triples_ms`` (load → ``len(graph.triples)``: decodes every row).

The bench trusts no timing whose answers it has not checked: the loaded
system's search *and* recommendation rankings must be byte-identical to
the built system's, every component must attach (zero storage
failures), the loaded lookup must equal the built system's, and the
written system's search and select answers must equal those of a build
that took the same writes; a bench that silently fell back to
rebuilding would otherwise report a meaningless ratio.

Run as a script to produce the machine-readable baseline::

    python benchmarks/bench_cold_start.py --sizes 200,2000 \
        --output BENCH_cold_start.json --min-coldstart-ratio 3.0

which is what the CI bench-smoke job does; the gate fails the run if
attaching is not at least that many times faster than rebuilding at the
largest size.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

from repro.datasets import RandomKGConfig, build_random_kg  # noqa: E402
from repro.engine import PivotE, PivotEApi  # noqa: E402
from repro.eval import print_experiment  # noqa: E402
from repro.storage import load_graph, system_store  # noqa: E402

SIZES = (200, 500, 1000, 2000)


def _queries(graph, count: int = 5) -> list[str]:
    entities = sorted(graph.entities())
    step = max(1, len(entities) // count)
    labels = [graph.label(entities[index]) for index in range(0, len(entities), step)]
    return labels[:count]


def _seeds(graph) -> list[str]:
    largest = max(graph.types(), key=lambda t: (graph.type_count(t), t))
    return sorted(graph.entities_of_type(largest))[:2]


def _signatures(system: PivotE, queries, seeds):
    search = [
        [(hit.entity_id, hit.score) for hit in system.search(query)]
        for query in queries
    ]
    recommendation = system.recommend(seeds)
    return search, [
        (entity.entity_id, entity.score) for entity in recommendation.entities
    ]


def _lookup(loaded: PivotE, probe: str):
    return loaded.lookup(probe)


def _write_read(loaded: PivotE, probe: str) -> list[dict]:
    graph = loaded.graph
    graph.add_label("ex:written", "written entity")
    graph.add_type("ex:written", graph.dominant_type(probe) or "ex:Thing")
    graph.add("ex:written", sorted(graph.edge_predicates())[0], probe)
    graph.add(probe, sorted(graph.edge_predicates())[0], "ex:written")
    loaded.search_engine.add_entity("ex:written")
    api = PivotEApi(loaded)
    search = api.handle({"action": "search", "keywords": "written entity"})
    api.handle({"action": "start_session", "session_id": "s"})
    return [search, api.handle({"action": "select_entity", "session_id": "s", "entity": "ex:written"})]


def _triples(loaded: PivotE, probe: str) -> int:
    return len(loaded.graph.triples)


#: ``load`` followed by a first use; each returns the answers it got.
DEFERRED = {
    "load_lookup_ms": _lookup,
    "load_write_read_ms": _write_read,
    "load_triples_ms": _triples,
}


def measure_cold_start(size: int, repeats: int = 5) -> dict[str, object]:
    """Rebuild-vs-attach cold-start timings (and the equivalence check)."""
    graph = build_random_kg(RandomKGConfig(num_entities=size, seed=29))
    built = PivotE(graph)
    queries = _queries(graph)
    seeds = _seeds(graph)
    expected = _signatures(built, queries, seeds)
    # What each first use must answer: the built system's lookup, and the
    # answers of a build that took the same writes.
    first_answers = {
        "load_lookup_ms": _lookup(built, seeds[0]),
        "load_triples_ms": _triples(built, seeds[0]),
    }
    with PivotE(graph.copy()) as written:
        first_answers["load_write_read_ms"] = _write_read(written, seeds[0])

    directory = tempfile.mkdtemp(prefix=f"pivote-coldstart-{size}-")
    try:
        started = time.perf_counter()
        built.save(directory)
        save_ms = (time.perf_counter() - started) * 1000.0
        built.close()

        # Interleave the two paths so background noise inflates both
        # equally — three unlucky attempts in a row on one side would
        # otherwise swing the ratio arbitrarily on a busy machine.
        rebuild_ms = float("inf")
        load_ms = float("inf")
        deferred_ms = dict.fromkeys(DEFERRED, float("inf"))
        identical = True
        failures = 0
        attached_bytes = 0
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            rebuilt = PivotE(load_graph(system_store(directory)))
            rebuild_ms = min(rebuild_ms, (time.perf_counter() - started) * 1000.0)
            rebuilt.close()

            started = time.perf_counter()
            loaded = PivotE.load(directory)
            elapsed = (time.perf_counter() - started) * 1000.0
            load_ms = min(load_ms, elapsed)
            storage = loaded.stats().storage
            failures = max(failures, storage.failures if storage else 0)
            attached_bytes = storage.attached_bytes if storage else 0
            if _signatures(loaded, queries, seeds) != expected:
                identical = False
            loaded.close()

            for name, first_use in DEFERRED.items():
                started = time.perf_counter()
                loaded = PivotE.load(directory)
                answer = first_use(loaded, seeds[0])
                elapsed = (time.perf_counter() - started) * 1000.0
                deferred_ms[name] = min(deferred_ms[name], elapsed)
                if answer != first_answers[name]:
                    identical = False
                loaded.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    return {
        "entities": size,
        "triples": len(graph),
        "rebuild_ms": round(rebuild_ms, 3),
        "save_ms": round(save_ms, 3),
        "load_ms": round(load_ms, 3),
        "coldstart_ratio": round(rebuild_ms / load_ms, 3) if load_ms else 0.0,
        **{name: round(value, 3) for name, value in deferred_ms.items()},
        "snapshot_bytes": attached_bytes,
        "storage_failures": failures,
        "identical": identical,
    }


@pytest.mark.parametrize("size", (200,))
def test_cold_start_smoke(size):
    """Tier-2 smoke: the round trip is identical and attaches cleanly."""
    row = measure_cold_start(size, repeats=1)
    assert row["identical"]
    assert row["storage_failures"] == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--sizes",
        default=",".join(str(size) for size in SIZES),
        help="comma-separated KG sizes (entities) to measure",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="interleaved rebuild/load attempts per size (best of each kept)",
    )
    parser.add_argument("--output", type=Path, default=None, help="write JSON report here")
    parser.add_argument(
        "--min-coldstart-ratio",
        type=float,
        default=None,
        help=(
            "fail unless rebuild_ms over load_ms reaches this at the largest "
            "size (3.0 = attaching the snapshots three times faster than "
            "adopting the graph and rebuilding every derived tier)"
        ),
    )
    args = parser.parse_args(argv)

    sizes = [int(token) for token in str(args.sizes).split(",") if token.strip()]
    rows = [measure_cold_start(size, repeats=args.repeats) for size in sizes]

    print_experiment(
        "durable snapshot cold start (attach vs rebuild; load + first use of deferred state)",
        rows,
        columns=(
            "entities",
            "triples",
            "rebuild_ms",
            "save_ms",
            "load_ms",
            "coldstart_ratio",
            *DEFERRED,
            "snapshot_bytes",
            "storage_failures",
            "identical",
        ),
    )

    exit_code = 0
    for row in rows:
        if not row["identical"] or row["storage_failures"]:
            print(
                f"FAIL: size {row['entities']} round trip degraded "
                f"(identical={row['identical']}, failures={row['storage_failures']})"
            )
            exit_code = 1
    largest = rows[-1]
    if args.min_coldstart_ratio is not None and exit_code == 0:
        if largest["coldstart_ratio"] < args.min_coldstart_ratio:
            print(
                f"FAIL: coldstart_ratio {largest['coldstart_ratio']} < "
                f"{args.min_coldstart_ratio} at {largest['entities']} entities"
            )
            exit_code = 1
        else:
            print(
                f"OK: coldstart_ratio {largest['coldstart_ratio']} >= "
                f"{args.min_coldstart_ratio} at {largest['entities']} entities"
            )

    if args.output:
        args.output.write_text(json.dumps({"cold_start": rows}, indent=2) + "\n")
        print(f"wrote {args.output}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
