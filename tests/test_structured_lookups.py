"""Structured lookups answered by the graph's own accessors.

The paper contrasts PivotE with structured (SPARQL-like) access, which
asks the user to know the schema.  The structured route stays available
as graph-pattern lookups over :class:`~repro.kg.KnowledgeGraph`'s
accessors (``subjects``/``objects``/``types_of``/``neighbours``...), as
``examples/structured_vs_exploratory.py`` shows.  Each question below is
one such lookup over ``tiny_kg``, whose contents are known exactly:
single patterns, joins through a shared variable, filters and the
one-hop neighbourhoods two entities share.  A system loaded from a
snapshot reads its graph off the stored column log, so every question is
asked of a built and of a loaded system's graph.
"""

from __future__ import annotations

import pytest

from repro.exceptions import EntityNotFoundError
from serial_matrix import origin_system

FILMS = {"ex:F1", "ex:F2", "ex:F3", "ex:F4"}
LOOKUP_ORIGINS = ("built", "loaded")


def co_stars(graph, actor: str) -> set[str]:
    # ?film ex:starring <actor> . ?film ex:starring ?other
    return {other for film in graph.subjects("ex:starring", actor) for other in graph.objects(film, "ex:starring")}


def directors_of(graph, films) -> set[str]:
    return {director for film in films for director in graph.objects(film, "ex:director")}


#: question -> (lookup over the graph, its answer on ``tiny_kg``)
QUESTIONS = {
    # Single patterns.
    "films-starring-an-actor": (lambda g: g.subjects("ex:starring", "ex:A1"), {"ex:F1", "ex:F2", "ex:F3"}),
    "actors-of-a-film": (lambda g: g.objects("ex:F1", "ex:starring"), {"ex:A1", "ex:A2"}),
    "members-of-a-type": (lambda g: g.entities_of_type("ex:Film"), FILMS),
    "types-of-an-entity": (lambda g: g.types_of("ex:F1"), {"ex:Film"}),
    "attribute-of-an-entity": (lambda g: g.attributes_of("ex:F1"), {"ex:year": ["1994"]}),
    "outgoing-edges-of-an-entity": (
        lambda g: g.outgoing("ex:F1"),
        [("ex:starring", "ex:A1"), ("ex:starring", "ex:A2"), ("ex:director", "ex:D1"), ("ex:genre", "ex:G1")],
    ),
    "incoming-edges-of-an-entity": (
        lambda g: g.incoming("ex:A1"),
        [("ex:starring", "ex:F1"), ("ex:starring", "ex:F2"), ("ex:starring", "ex:F3")],
    ),
    "both-endpoints-of-a-predicate": (
        lambda g: {(s, o) for s in g.subjects_of_predicate("ex:director") for o in g.objects(s, "ex:director")},
        {("ex:F1", "ex:D1"), ("ex:F4", "ex:D1")},
    ),
    "objects-of-a-predicate": (lambda g: g.objects_of_predicate("ex:genre"), {"ex:G1", "ex:G2"}),
    "a-present-ground-pattern": (lambda g: "ex:A1" in g.objects("ex:F1", "ex:starring"), True),
    "an-absent-ground-pattern": (lambda g: "ex:A1" in g.objects("ex:F4", "ex:starring"), False),
    "predicates-between-two-entities": (lambda g: g.predicates_between("ex:F1", "ex:A1"), {"ex:starring"}),
    "no-predicate-between-unlinked-entities": (lambda g: g.predicates_between("ex:F4", "ex:A1"), set()),
    "members-of-a-category": (lambda g: g.entities_in_category("exc:Films"), FILMS),
    "categories-of-an-entity": (lambda g: g.categories_of("ex:F2"), {"exc:Films"}),
    "label-of-an-entity": (lambda g: g.label("ex:G1"), "Drama"),
    "frequency-of-a-predicate": (lambda g: g.predicate_frequency("ex:starring"), 6),
    "size-of-a-type": (lambda g: g.type_count("ex:Genre"), 2),
    "dominant-type-of-an-entity": (lambda g: g.dominant_type("ex:D1"), "ex:Director"),
    "edge-predicates": (lambda g: g.edge_predicates(), {"ex:starring", "ex:director", "ex:genre"}),
    # Joins through a shared variable.
    "two-pattern-join": (
        lambda g: g.subjects("ex:starring", "ex:A1") & g.subjects("ex:genre", "ex:G1"),
        {"ex:F1", "ex:F2", "ex:F3"},
    ),
    "co-stars-of-an-actor": (lambda g: co_stars(g, "ex:A1"), {"ex:A1", "ex:A2"}),
    "three-pattern-join": (
        lambda g: directors_of(g, g.subjects("ex:starring", "ex:A1") & g.subjects("ex:genre", "ex:G1")),
        {"ex:D1"},
    ),
    "an-unsatisfiable-join": (
        lambda g: g.subjects("ex:starring", "ex:A3") & g.subjects("ex:genre", "ex:G1"),
        set(),
    ),
    "a-join-on-a-typed-variable": (
        lambda g: g.subjects("ex:director", "ex:D1") & g.entities_of_type("ex:Film"),
        {"ex:F1", "ex:F4"},
    ),
    # Filters.
    "a-label-filter": (lambda g: {f for f in g.entities_of_type("ex:Film") if "f1" in g.label(f).lower()}, {"ex:F1"}),
    "an-inequality-filter": (lambda g: g.subjects("ex:starring", "ex:A1") - {"ex:F1"}, {"ex:F2", "ex:F3"}),
    "an-attribute-filter": (
        lambda g: {f for f in g.entities_of_type("ex:Film") if g.attributes_of(f)["ex:year"][0] < "1999"},
        {"ex:F1", "ex:F2"},
    ),
    # One-hop neighbourhoods.
    "neighbours-of-a-film": (lambda g: g.neighbours("ex:F1"), {"ex:A1", "ex:A2", "ex:D1", "ex:G1"}),
    "neighbours-of-an-actor": (lambda g: g.neighbours("ex:A1"), {"ex:F1", "ex:F2", "ex:F3"}),
    "degree-of-a-film": (lambda g: g.degree("ex:F1"), 4),
    "entities-two-films-share": (lambda g: g.neighbours("ex:F1") & g.neighbours("ex:F2"), {"ex:A1", "ex:A2", "ex:G1"}),
    "entities-a-film-and-a-director-share": (lambda g: g.neighbours("ex:F4") & g.neighbours("ex:D1"), set()),
    "entities-two-unlinked-entities-share": (lambda g: g.neighbours("ex:F3") & g.neighbours("ex:A3"), set()),
    "entities-a-film-and-its-actor-share": (lambda g: g.neighbours("ex:F1") & g.neighbours("ex:A1"), set()),
}


@pytest.fixture(params=LOOKUP_ORIGINS)
def lookup_graph(request, tiny_kg, tmp_path):
    with origin_system(tiny_kg, request.param, str(tmp_path / "system")) as system:
        yield system.graph


@pytest.mark.parametrize("question", sorted(QUESTIONS))
def test_a_structured_lookup_gives_its_known_answer(lookup_graph, question):
    lookup, answer = QUESTIONS[question]
    assert lookup(lookup_graph) == answer


def test_an_unknown_entity_is_refused(lookup_graph):
    assert not lookup_graph.has_entity("ex:nope")
    with pytest.raises(EntityNotFoundError):
        lookup_graph.require_entity("ex:nope")


#: The structured route of ``examples/structured_vs_exploratory.py`` over the
#: curated movie KG: question -> (lookup, entities the answer must hold).
MOVIE_QUESTIONS = {
    "films-starring-tom-hanks": (
        lambda g: {f for f in g.subjects("dbo:starring", "dbr:Tom_Hanks") if "dbo:Film" in g.types_of(f)},
        {"dbr:Forrest_Gump", "dbr:Apollo_13_(film)"},
    ),
    "films-a-director-made": (
        lambda g: g.subjects("dbo:director", "dbr:Robert_Zemeckis"),
        {"dbr:Forrest_Gump", "dbr:Cast_Away"},
    ),
    "directors-tom-hanks-worked-with": (
        lambda g: {d for f in g.subjects("dbo:starring", "dbr:Tom_Hanks") for d in g.objects(f, "dbo:director")},
        {"dbr:Robert_Zemeckis"},
    ),
    "actors-of-a-film": (lambda g: g.objects("dbr:Forrest_Gump", "dbo:starring"), {"dbr:Tom_Hanks"}),
}


@pytest.mark.parametrize("origin", LOOKUP_ORIGINS)
@pytest.mark.parametrize("question", sorted(MOVIE_QUESTIONS))
def test_the_movie_kg_answers_the_structured_route(movie_kg, tmp_path, origin, question):
    lookup, expected = MOVIE_QUESTIONS[question]
    with origin_system(movie_kg.copy(), origin, str(tmp_path / "system")) as system:
        answer = lookup(system.graph)
    assert expected <= answer
    assert answer == lookup(movie_kg)
