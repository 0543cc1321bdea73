"""Every public accessor of a graph answers as the dict-of-sets oracle does.

Values *and* order (:mod:`graph_oracle`), over the serial matrix's graph
shapes × origins — built, loaded from a save, written after a build —
and the movie and academic KGs, before and after writes.  The writes
interleave reads, touch old and new entities, repeat a saved string as a
new literal, and include duplicate triples, which must return False.
"""

from __future__ import annotations

import pytest

from repro.datasets import build_random_kg, small_academic_kg, small_movie_kg
from repro.exceptions import EntityNotFoundError
from repro.kg import KnowledgeGraph, Literal, Triple
from repro.kg.namespaces import DCT_SUBJECT, DISAMBIGUATES, RDF_TYPE, RDFS_LABEL, REDIRECT

from graph_oracle import GraphOracle
from serial_matrix import GRAPH_SHAPES, ORIGINS, origin_system

GRAPHS = {
    **{shape: (lambda config=config: build_random_kg(config)) for shape, config in GRAPH_SHAPES.items()},
    "movies": small_movie_kg,
    "academic": small_academic_kg,
}
WHOLE = ("entities", "num_entities", "predicates", "edge_predicates", "num_edges", "types", "type_tables")
PER_ENTITY = (
    "has_entity", "outgoing", "incoming", "neighbours", "degree", "types_of", "dominant_type",
    "labels_of", "label", "categories_of", "aliases_of",
)


def assert_accessors_match(graph: KnowledgeGraph, oracle: GraphOracle) -> None:
    assert len(graph) == graph.epoch == len(oracle)
    for name in WHOLE:
        assert getattr(graph, name)() == getattr(oracle, name)(), name
    assert graph.describe() == oracle.describe(graph.name)
    assert list(graph.triples) == list(graph) == oracle.triples
    for probe in [*sorted(oracle.entities()), "ex:nobody"]:
        for name in PER_ENTITY:
            assert getattr(graph, name)(probe) == getattr(oracle, name)(probe), (name, probe)
        attributes = graph.attributes_of(probe)
        assert list(attributes.items()) == list(oracle.attributes_of(probe).items()), probe
        assert graph.entity_or_none(probe) == oracle.entity(probe), probe
        assert (probe in graph) == oracle.has_entity(probe)
        for predicate, target in oracle.outgoing(probe):
            assert graph.objects(probe, predicate) == oracle.objects(probe, predicate)
            assert graph.subjects(predicate, target) == oracle.subjects(predicate, target)
            assert graph.predicates_between(probe, target) == oracle.predicates_between(probe, target)
    with pytest.raises(EntityNotFoundError):
        graph.require_entity("ex:nobody")
    for type_id in [*sorted(oracle.types()), "ex:NoType"]:
        assert graph.entities_of_type(type_id) == oracle.entities_of_type(type_id), type_id
        assert graph.type_count(type_id) == oracle.type_count(type_id), type_id
    for predicate in [*sorted(oracle.predicates()), "ex:nothing"]:
        for name in ("subjects_of_predicate", "objects_of_predicate", "predicate_frequency"):
            assert getattr(graph, name)(predicate) == getattr(oracle, name)(predicate), (name, predicate)
    for category in [*sorted(oracle.category_members), "ex:no-category"]:
        assert graph.entities_in_category(category) == oracle.entities_in_category(category)


def writes(oracle: GraphOracle) -> list[Triple]:
    """New triples on new and old entities, then duplicates of old and new ones."""
    entities = sorted(oracle.entities())
    predicate = sorted(oracle.edge_predicates())[0]
    written = [
        Triple("ex:Written", RDFS_LABEL, Literal('written "entity" 𝄞')),
        Triple("ex:Written", RDF_TYPE, sorted(oracle.types())[0]),
        Triple("ex:Written", RDF_TYPE, "ex:WrittenType"),
        Triple("ex:Written", predicate, entities[0]),
        Triple(entities[1], predicate, "ex:Written"),
        Triple(entities[1], "ex:written", entities[0]),
        Triple(entities[0], "ex:attr", Literal(oracle.label(entities[0]), "string", "en")),
        Triple(entities[0], RDFS_LABEL, Literal("second label")),
        Triple(entities[0], DCT_SUBJECT, "ex:WrittenCategory"),
        Triple("ex:Written", REDIRECT, entities[2]),
        Triple(entities[2], DISAMBIGUATES, "ex:Alias"),
    ]
    duplicates = oracle.triples[:: max(1, len(oracle.triples) // 20)] + written[::3]
    return written + duplicates


@pytest.mark.parametrize("origin", ORIGINS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_every_accessor_answers_as_the_oracle(name, origin, tmp_path):
    graph = GRAPHS[name]()
    system = origin_system(graph, origin, str(tmp_path / "system"))
    try:
        served, oracle = system.graph, GraphOracle(graph.triples)
        assert_accessors_match(served, oracle)
        batch = writes(oracle)
        half = len(batch) // 2
        for triple in batch[:half]:
            assert served.add_triple(triple) == oracle.add_triple(triple), triple
        served.entity_or_none("ex:Written")  # a read between the writes
        assert_accessors_match(served, oracle)
        assert served.add_all(batch[half:]) == sum(oracle.add_triple(t) for t in batch[half:])
        assert_accessors_match(served, oracle)
    finally:
        system.close()
