"""Which functions of ``src/repro`` the program's entry points reach.

    python3 benchmarks/reach.py            # rewrite REACH.txt
    python3 benchmarks/reach.py --check    # regenerate; exit 1 on any difference

Runs the roots below under ``sys.setprofile`` / ``threading.setprofile``
and writes ``REACH.txt``: per module of ``src/repro``, the functions it
defines (every ``def``, nested ones included), how many a root called and
the names of those none did.  The roots:

* every ``PivotEApi`` action on a system built over each curated KG and a
  random one, then on its save → load, then on the loaded system after a
  graph write plus ``add_entity``;
* every CLI subcommand, with ``search --batch``, ``--graph-file``,
  ``--snapshot-dir`` and ``load`` of the committed fixture directories;
* each ``benchmarks/e2e`` workload's request stream at the smoke request
  count (fixed, not timed), with its exhaustive oracle.

A function no root reaches goes, unless a test names it as the reference
of something that stays.  The run re-executes itself under
``PYTHONHASHSEED=0`` and takes 12–17 s on 2 cores.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import difflib
import io
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
REPORT = ROOT / "REACH.txt"
FIXTURES = ROOT / "tests" / "fixtures"

seen: set = set()


def _profile(frame, event, arg) -> None:
    if event == "call":
        seen.add(frame.f_code)


def defined(path: Path) -> dict[int, str]:
    """``first line → qualified name`` of every ``def`` in a module.

    The first line is a decorated function's first decorator's, as in
    its code object's ``co_firstlineno``.
    """
    found: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[first] = prefix + child.name
                visit(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def api_actions(system, keywords: str, entity: str | None = None) -> None:
    """Every ``PivotEApi`` action once, one session, plus two bad requests."""
    from repro import PivotEApi

    handle = PivotEApi(system).handle
    hits = [hit["entity"] for hit in handle({"action": "search", "keywords": keywords, "top_k": "5"})["hits"]]
    first = entity or hits[0]
    handle({"action": "start_session", "session_id": "s"})
    handle({"action": "submit_keywords", "session_id": "s", "keywords": keywords})
    response = handle({"action": "select_entity", "session_id": "s", "entity": first})
    other = response["recommendation"]["entities"][0]["entity"]
    response = handle({"action": "select_entity", "session_id": "s", "entity": other})
    for feature in response["recommendation"]["features"][:1]:
        handle({"action": "pin_feature", "session_id": "s", "feature": feature["feature"]})
        handle({"action": "unpin_feature", "session_id": "s", "feature": feature["feature"]})
    handle({"action": "set_domain", "session_id": "s", "domain": system.graph.dominant_type(first)})
    handle({"action": "deselect_entity", "session_id": "s", "entity": other})
    handle({"action": "pivot", "session_id": "s", "entity": other})
    handle({"action": "investigate", "session_id": "s"})
    handle({"action": "lookup", "entity": other})
    handle({"action": "lookup", "session_id": "s", "entity": first})
    handle({"action": "explain", "left": first, "right": other})
    handle({"action": "session_state", "session_id": "s"})
    handle({"action": "revisit", "session_id": "s", "step": 1})
    handle({"action": "stats"})
    handle({"action": "no_such_action"})
    handle({"action": "select_entity", "session_id": "s", "entity": "ex:no_such_entity"})


def api_roots(work: Path) -> None:
    from repro import PivotE
    from repro.datasets import (
        RandomKGConfig,
        build_academic_kg,
        build_geography_kg,
        build_movie_kg,
        build_random_kg,
    )

    graphs = (build_movie_kg(), build_academic_kg(), build_geography_kg(),
              build_random_kg(RandomKGConfig(num_entities=300, seed=1)))
    for number, graph in enumerate(graphs):
        degrees = {entity: len(graph.outgoing(entity)) for entity in sorted(graph.entities())}
        probe = max(degrees, key=degrees.__getitem__)
        keywords = graph.label(probe)
        with PivotE(graph) as built:
            api_actions(built, keywords)
            built.save(str(work / f"api-{number}"))
        with PivotE.load(str(work / f"api-{number}")) as loaded:
            api_actions(loaded, keywords)
            predicate, target = loaded.graph.outgoing(probe)[0]
            loaded.graph.add_label("ex:reach_written", "Reach Written Entity")
            loaded.graph.add_type("ex:reach_written", loaded.graph.dominant_type(probe))
            loaded.graph.add("ex:reach_written", predicate, target)
            loaded.search_engine.add_entity("ex:reach_written")
            api_actions(loaded, "reach written entity", entity="ex:reach_written")


def cli_roots(work: Path) -> None:
    from repro.cli import main
    from repro.datasets import small_movie_kg
    from repro.kg import Literal, save_ntriples

    graph = small_movie_kg()  # plus two DBpedia-shaped literals: an escaped and a typed one
    graph.add("dbr:Forrest_Gump", "dbo:abstract", Literal('"Run, Forrest!"\n(1994)', language="en"))
    graph.add("dbr:Forrest_Gump", "dbo:runtime", Literal("142.0", datatype="http://www.w3.org/2001/XMLSchema#double"))
    save_ntriples(graph, work / "movies.nt")
    (work / "queries.txt").write_text("forrest gump\n\ntom hanks\n", encoding="utf-8")
    snapshot = str(work / "cli-snapshot")
    commands = [
        ["stats"], ["--dataset", "academic", "stats"], ["--graph-file", str(work / "movies.nt"), "stats"],
        ["--show-pruning", "search", "forrest gump", "--top-k", "3"],
        ["search", "--batch", str(work / "queries.txt")],
        ["recommend", "dbr:Forrest_Gump", "--feature", "dbr:Tom_Hanks:dbo:starring"],
        ["matrix", "dbr:Forrest_Gump", "dbr:Apollo_13_(film)"],
        ["profile", "dbr:Forrest_Gump"], ["profile", "dbr:No_Such_Entity"],
        ["explain", "dbr:Forrest_Gump", "dbr:Apollo_13_(film)"],
        ["explore", "forrest gump", "--select", "dbr:Forrest_Gump", "--pivot", "dbr:Tom_Hanks"],
        ["save", snapshot], ["load", snapshot], ["--snapshot-dir", snapshot, "search", "apollo"],
    ]
    for layout in ("system-before-feature-codes", "system-before-one-dictionary"):
        shutil.copytree(FIXTURES / layout, work / layout)
        commands.append(["load", str(work / layout)])
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = main(argv)
        if status != (argv[-1] == "dbr:No_Such_Entity"):
            raise SystemExit(f"repro.cli {' '.join(argv)} exited {status}")


def e2e_roots() -> None:
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    import run  # benchmarks/e2e/run.py

    seconds = run.SPEC["run_seconds"] / 10
    for workload in sorted(run.WORKLOADS):
        units = run.units_for(workload, seconds)
        done = run.drive(workload, 1, run.SMOKE_ENTITIES, units, 1, None, oracle=True)
        if done.client.failures:
            raise SystemExit(f"{workload}: {done.client.failures[:3]}")
    if run.WORK.is_dir() and not any(run.WORK.iterdir()):
        run.WORK.rmdir()


def report() -> str:
    """Run every root under the profiler and render ``REACH.txt``."""
    sys.path.insert(0, str(SRC))
    threading.setprofile(_profile)
    sys.setprofile(_profile)
    try:
        with tempfile.TemporaryDirectory() as work:
            api_roots(Path(work))
            cli_roots(Path(work))
        e2e_roots()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    reached: set[tuple[str, int]] = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}
    lines = [
        "# Functions of src/repro reached by the roots of benchmarks/reach.py:",
        "# module  reached/defined, then each function no root reached.",
        "# Regenerate with `python3 benchmarks/reach.py`; CI runs it with --check.",
    ]
    total = hit = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        functions = defined(path)
        missed = sorted(name for line, name in functions.items() if (str(path.resolve()), line) not in reached)
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        total, hit = total + len(functions), hit + len(functions) - len(missed)
        lines.append(f"{module}  {len(functions) - len(missed)}/{len(functions)}")
        lines.extend(f"    {name}" for name in missed)
    lines.append(f"# total  {hit}/{total}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true", help="fail when REACH.txt differs from a fresh run")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set and dict iteration order decides which paths some calls take.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    text = report()
    if not args.check:
        REPORT.write_text(text, encoding="utf-8")
        return 0
    old = REPORT.read_text(encoding="utf-8") if REPORT.is_file() else ""
    sys.stdout.writelines(difflib.unified_diff(
        old.splitlines(True), text.splitlines(True), "REACH.txt (committed)", "REACH.txt (this run)"))
    return int(old != text)


if __name__ == "__main__":
    sys.exit(main())
