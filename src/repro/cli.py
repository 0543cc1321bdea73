"""Command-line interface to the PivotE system.

The original demo is a web application; this CLI provides the same
interaction surface in a terminal, which is both a convenient way to try
the system and the programmatic entry point the examples and docs refer to.

Subcommands
-----------
``stats``       print dataset statistics for one of the built-in KGs
``search``      keyword entity search (Fig 3-a/c)
``recommend``   entity + semantic-feature recommendation for seed entities
``matrix``      render the heat-map matrix for seed entities (Fig 3-f)
``profile``     show an entity's profile (Fig 3-d)
``explain``     explain why two entities are related (the explanation area)
``explore``     replay a scripted exploration session and print the path (Fig 4)
``save``        build the system and persist a durable snapshot directory
``load``        cold-start from a durable snapshot and print a summary

Usage::

    python -m repro.cli search "forrest gump"
    python -m repro.cli recommend dbr:Forrest_Gump "dbr:Apollo_13_(film)"
    python -m repro.cli matrix dbr:Forrest_Gump --top-entities 6
    python -m repro.cli explain dbr:Forrest_Gump "dbr:Apollo_13_(film)"
    python -m repro.cli --pruning off --show-pruning search "forrest gump"
    python -m repro.cli --dataset movies save /tmp/pivote-snap
    python -m repro.cli load /tmp/pivote-snap
    python -m repro.cli --snapshot-dir /tmp/pivote-snap search "forrest gump"
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence
from dataclasses import replace

from .config import PRUNING_MODES, PivotEConfig
from .datasets import build_academic_kg, build_geography_kg, build_movie_kg, small_movie_kg
from .engine import PivotE
from .features import SemanticFeature
from .kg import KnowledgeGraph, compute_statistics, load_ntriples
from .viz import render_matrix_ascii, render_path_ascii, render_profile_text

#: Registry of built-in datasets selectable with ``--dataset``.
DATASETS: dict[str, Callable[[], KnowledgeGraph]] = {
    "movies": build_movie_kg,
    "movies-small": small_movie_kg,
    "academic": build_academic_kg,
    "geography": build_geography_kg,
}


def load_graph(dataset: str, graph_file: str | None) -> KnowledgeGraph:
    """Load the requested dataset (or an N-Triples file)."""
    if graph_file:
        return load_ntriples(graph_file)
    if dataset not in DATASETS:
        raise SystemExit(f"unknown dataset {dataset!r}; choose from {sorted(DATASETS)}")
    return DATASETS[dataset]()


def _positive_int(text: str) -> int:
    """An ``argparse`` type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="pivote",
        description="PivotE: entity-oriented exploratory search over knowledge graphs",
    )
    parser.add_argument(
        "--dataset",
        default="movies-small",
        help=f"built-in dataset to load ({', '.join(sorted(DATASETS))})",
    )
    parser.add_argument(
        "--graph-file",
        default=None,
        help="load the knowledge graph from an N-Triples file instead",
    )
    parser.add_argument(
        "--pruning",
        default=None,
        choices=PRUNING_MODES,
        help=(
            "top-k execution strategy for both engines: 'off' (plain "
            "accumulators) or 'maxscore' (threshold-pruned, the default); "
            "rankings are identical in both modes"
        ),
    )
    parser.add_argument(
        "--show-pruning",
        action="store_true",
        help="print the engines' cumulative pruning counters after the command",
    )
    parser.add_argument(
        "--graph-topology",
        default=None,
        choices=("on", "off"),
        help=(
            "recommendation engine: traverse through the columnar graph "
            "topology — CSR adjacency plus interval-encoded type "
            "reachability — ('on', the default) or the scalar per-edge "
            "walks ('off', the A/B arm); results are identical either way"
        ),
    )
    parser.add_argument(
        "--snapshot-dir",
        dest="save_dir",
        default=None,
        metavar="DIR",
        help=(
            "saved-system directory: engine-backed commands cold-start "
            "from it when it holds a save of the same graph (otherwise "
            "they build in RAM and write nothing), and save/load use it "
            "when given no directory"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("stats", help="print dataset statistics")

    search = subparsers.add_parser("search", help="keyword entity search")
    search.add_argument(
        "keywords",
        help="the keyword query (with --batch: a query file, one query per line, or '-' for stdin)",
    )
    search.add_argument("--top-k", type=_positive_int, default=10)
    search.add_argument(
        "--batch",
        action="store_true",
        help=(
            "treat KEYWORDS as a file of queries (one per line; '-' reads "
            "stdin) and answer them in one search_many batch"
        ),
    )

    recommend = subparsers.add_parser("recommend", help="recommend similar entities")
    recommend.add_argument("seeds", nargs="+", help="seed entity identifiers")
    recommend.add_argument("--top-entities", type=int, default=10)
    recommend.add_argument("--top-features", type=int, default=10)
    recommend.add_argument("--feature", action="append", default=[], help="pin a semantic feature (anchor:predicate)")

    matrix = subparsers.add_parser("matrix", help="render the heat-map matrix")
    matrix.add_argument("seeds", nargs="+", help="seed entity identifiers")
    matrix.add_argument("--top-entities", type=int, default=8)
    matrix.add_argument("--top-features", type=int, default=12)

    profile = subparsers.add_parser("profile", help="show an entity profile")
    profile.add_argument("entity", help="the entity identifier")

    explain = subparsers.add_parser("explain", help="explain why two entities are related")
    explain.add_argument("left")
    explain.add_argument("right")

    explore = subparsers.add_parser("explore", help="replay a scripted exploration session")
    explore.add_argument("keywords", help="initial keyword query")
    explore.add_argument("--select", action="append", default=[], help="entity to select as example")
    explore.add_argument("--pivot", default=None, help="entity to pivot on at the end")

    save = subparsers.add_parser(
        "save", help="build the system and persist a durable snapshot"
    )
    save.add_argument(
        "directory",
        nargs="?",
        default=None,
        help="target directory (defaults to --snapshot-dir)",
    )

    load = subparsers.add_parser(
        "load", help="cold-start from a durable snapshot and print a summary"
    )
    load.add_argument(
        "directory",
        nargs="?",
        default=None,
        help="snapshot directory (defaults to --snapshot-dir)",
    )

    return parser


def _read_batch_queries(source: str) -> list[str]:
    """Queries for ``search --batch``: one per non-blank line of the input."""
    if source == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(source, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    return [line.strip() for line in lines if line.strip()]


def _print_hit_lines(hits) -> None:
    if not hits:
        print("(no matching entities)")
        return
    for hit in hits:
        print(f"{hit.score:10.3f}  {hit.label:<36} {hit.entity_id}")


def _print_hits(system: PivotE, keywords: str, top_k: int) -> None:
    _print_hit_lines(system.search(keywords, top_k=top_k))


def _print_recommendation(system: PivotE, recommendation, top_entities: int, top_features: int) -> None:
    print("entities:")
    for entity in recommendation.entities[:top_entities]:
        print(f"  {entity.score:10.4f}  {system.graph.label(entity.entity_id):<36} {entity.entity_id}")
    print("semantic features:")
    for scored in recommendation.features[:top_features]:
        print(f"  {scored.score:10.4f}  {scored.feature.notation()}")


def build_config(pruning: str | None, graph_topology: str | None = None) -> PivotEConfig:
    """The system configuration for the CLI's execution-layer overrides.

    ``pruning`` configures both engines, ``graph_topology`` the
    recommendation engine only.
    """
    config = PivotEConfig.default()
    search_changes: dict[str, object] = {}
    ranking_changes: dict[str, object] = {}
    if pruning is not None:
        search_changes["pruning"] = pruning
        ranking_changes["pruning"] = pruning
    if graph_topology is not None:
        ranking_changes["graph_topology"] = graph_topology == "on"
    if not search_changes and not ranking_changes:
        return config
    return replace(
        config,
        search=config.search.with_(**search_changes),
        ranking=config.ranking.with_(**ranking_changes),
    )


def _print_pruning_info(system: PivotE) -> None:
    """Dump both engines' cumulative pruning counters (``--show-pruning``).

    Routed through the unified :meth:`PivotE.stats` record; the printed
    dicts are the same counters the legacy ``pruning_info()`` shims
    report.
    """
    stats = system.stats()
    print(f"pruning mode: {stats.pruning}")
    print(f"pruning[search]:    {stats.child('search').pruning_view('mlm').as_counters()}")
    recommend = stats.child("recommendation").pruning_view("entity-ranker").as_counters()
    print(f"pruning[recommend]: {recommend}")
    if stats.traversal is not None:
        print(f"traversal[topology]: {stats.traversal.as_dict()}")


def _print_load_summary(directory: str, system: PivotE) -> None:
    storage = system.stats().storage
    print(
        f"loaded {directory}: graph {system.graph.name!r} at epoch "
        f"{system.graph.epoch} ({len(system.graph)} triples), "
        f"{system.search_engine.num_indexed()} entities indexed"
    )
    if storage is not None:
        print(
            f"cold start: {storage.cold_start_ms:.1f} ms "
            f"({storage.attaches} snapshots attached, "
            f"{storage.attached_bytes} bytes, {storage.failures} failures)"
        )


def run_command(args: argparse.Namespace) -> int:
    """Execute a parsed CLI command; return the process exit code."""
    config = build_config(args.pruning, args.graph_topology)

    if args.command == "load":
        directory = args.directory or args.save_dir
        if not directory:
            raise SystemExit("load needs a directory argument (or --snapshot-dir)")
        system = PivotE.load(directory, config=config)
        _print_load_summary(directory, system)
        return 0

    graph = load_graph(args.dataset, args.graph_file)

    if args.command == "stats":
        print(compute_statistics(graph).summary())
        return 0

    if args.command == "save":
        directory = args.directory or args.save_dir
        if not directory:
            raise SystemExit("save needs a directory argument (or --snapshot-dir)")
        system = PivotE(graph, config=config)
        manifest = system.save(directory)
        info = manifest["graph"]
        print(
            f"saved {directory}: graph {info['name']!r} at epoch "
            f"{info['epoch']} ({info['triples']} triples), "
            f"keys {manifest['keys']}"
        )
        return 0

    system = _load_or_build(graph, config, args.save_dir)
    exit_code = _run_system_command(system, args)
    if exit_code == 0 and args.show_pruning:
        _print_pruning_info(system)
    return exit_code


def _load_or_build(graph: KnowledgeGraph, config: PivotEConfig, save_dir: str | None) -> PivotE:
    """Cold-start from the saved-system directory when possible, else build.

    The save must describe the same graph the CLI just loaded (epoch
    and triple count match) — anything else, including an empty or
    missing directory, silently falls back to the fresh build in RAM.
    Only ``save`` ever writes to the directory.
    """
    if save_dir:
        from .storage import SnapshotUnavailable

        try:
            system = PivotE.load(save_dir, config=config)
        except SnapshotUnavailable:
            pass
        else:
            if (
                system.graph.epoch == graph.epoch
                and len(system.graph) == len(graph)
            ):
                return system
            system.close()
    return PivotE(graph, config=config)


def _run_system_command(system: PivotE, args: argparse.Namespace) -> int:
    """Dispatch one engine-backed subcommand; return the process exit code."""
    if args.command == "search":
        if args.batch:
            queries = _read_batch_queries(args.keywords)
            if not queries:
                print("(no queries in batch input)")
                return 0
            for position, (query, hits) in enumerate(
                zip(queries, system.search_many(queries, top_k=args.top_k))
            ):
                if position:
                    print()
                print(f"query: {query}")
                _print_hit_lines(hits)
            return 0
        _print_hits(system, args.keywords, args.top_k)
        return 0

    if args.command == "recommend":
        pinned = [SemanticFeature.parse(notation) for notation in args.feature]
        recommendation = system.recommend(
            args.seeds,
            pinned_features=pinned,
            top_entities=args.top_entities,
            top_features=args.top_features,
        )
        _print_recommendation(system, recommendation, args.top_entities, args.top_features)
        return 0

    if args.command == "matrix":
        recommendation = system.recommend(
            args.seeds, top_entities=args.top_entities, top_features=args.top_features
        )
        print(
            render_matrix_ascii(
                system.matrix_for(recommendation),
                max_entities=args.top_entities,
                max_features=args.top_features,
            )
        )
        return 0

    if args.command == "profile":
        print(render_profile_text(system.lookup(args.entity)))
        return 0

    if args.command == "explain":
        print(system.explain(args.left, args.right).text)
        return 0

    if args.command == "explore":
        session = system.start_session("cli")
        response = system.submit_keywords(session, args.keywords)
        _print_hits(system, args.keywords, 5)
        for entity in args.select:
            response = system.select_entity(session, entity)
        if args.pivot:
            response = system.pivot(session, args.pivot)
        if response.recommendation is not None:
            _print_recommendation(system, response.recommendation, 8, 8)
        print("\nexploratory path:")
        print(render_path_ascii(session.path))
        return 0

    raise SystemExit(f"unhandled command: {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args)
    except Exception as exc:  # surfaced as a message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
