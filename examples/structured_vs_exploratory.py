"""Structured (SPARQL-like) access vs. exploratory search, side by side.

The paper motivates PivotE by the difficulty of accessing a KG "in a
structured manner like SPARQL" when the user does not know the schema.
This example makes the contrast concrete on the same information need
("what else is like Forrest Gump, and who keeps showing up?"):

1. the **structured** route: hand-written graph-pattern lookups over the
   graph's own accessors (``subjects``/``objects``/``label``) — precise,
   but the user must already know predicates such as ``dbo:starring`` and
   decide upfront what to ask;
2. the **exploratory** route: one click on Forrest Gump, and the
   recommendation engine surfaces the same films and the features that
   explain them, without the user naming a single predicate.

Run with:  python examples/structured_vs_exploratory.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import PivotE
from repro.datasets import build_movie_kg


def main() -> None:
    graph = build_movie_kg()

    # ------------------------------------------------------------------ #
    # Route 1: structured lookups (the user must know the schema).
    # ------------------------------------------------------------------ #
    # ?film dbo:starring dbr:Tom_Hanks . ?film rdf:type dbo:Film
    films = sorted(
        (film for film in graph.subjects("dbo:starring", "dbr:Tom_Hanks") if "dbo:Film" in graph.types_of(film)),
        key=graph.label,
    )
    print("== structured: films starring Tom Hanks ==")
    for film in films:
        print(f"  {graph.label(film)}")

    # ... ?film dbo:genre dbr:Drama . ?film dbo:starring ?actor FILTER(?actor != dbr:Tom_Hanks)
    print("\n== structured: actors co-starring with Tom Hanks in a drama ==")
    actors = {
        actor
        for film in films
        if "dbr:Drama" in graph.objects(film, "dbo:genre")
        for actor in graph.objects(film, "dbo:starring")
    } - {"dbr:Tom_Hanks"}
    for actor in sorted(actors, key=graph.label):
        print(f"  {graph.label(actor)}")

    # ... ?film dbo:director ?director
    print("\n== structured: directors Tom Hanks has worked with, with the film ==")
    for film in films:
        for director in sorted(graph.objects(film, "dbo:director"), key=graph.label):
            print(f"  {graph.label(director):<22} via {graph.label(film)}")

    # ------------------------------------------------------------------ #
    # Route 2: exploratory search (no schema knowledge required).
    # ------------------------------------------------------------------ #
    system = PivotE(graph)
    print("\n== exploratory: one click on Forrest Gump ==")
    recommendation = system.recommend(["dbr:Forrest_Gump"])
    print("similar entities the system proposes:")
    for entity in recommendation.entities[:8]:
        print(f"  {entity.score:8.4f}  {graph.label(entity.entity_id)}")
    print("semantic features it discovered on the fly (the schema, learned as you go):")
    for scored in recommendation.features[:8]:
        print(f"  {scored.score:8.4f}  {scored.feature.notation()}")

    print(
        "\nThe exploratory route surfaces dbo:starring / dbo:director / dbo:genre and "
        "the same Tom Hanks films without the user writing a single triple pattern; "
        "the structured route remains available (the graph's subjects/objects "
        "accessors) once the user knows exactly what to ask."
    )


if __name__ == "__main__":
    main()
