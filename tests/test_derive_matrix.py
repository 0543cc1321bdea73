"""A derived epoch equals the full sort, for every kind of write and every origin.

A write derives the next epoch's edge CSR and type tables from the last
one's by shifting and splicing (``GraphTopology._derived``,
``ColumnarFeatureTables.derived_type_tables``).  Each shape of write
takes a different branch there: an id that sorts after every old one
moves no ordinal, one that sorts first moves every ordinal, one in the
middle moves half; a new edge predicate re-codes every code; an edge
between old entities adds holders and no entity; a type write moves
dominant types through a population; a burst does all of it at once,
up to :attr:`GraphTopology.max_delta_fraction`.  For each, on a system
built, loaded and written (``serial_matrix.ORIGINS``), the derived
arrays equal, dtype and bytes, those of a graph that took the same
triples in one go and sorted everything, and the predecessor's arrays
are unchanged.
"""

from __future__ import annotations

import pytest

from repro.datasets import build_random_kg
from repro.features import SemanticFeatureIndex
from repro.kg import GraphTopology, KnowledgeGraph
from serial_matrix import GRAPH_SHAPES, ORIGINS, origin_system

TOPOLOGY_ARRAYS = (
    "feature_codes", "holder_offsets", "holder_ordinals", "anchor_features", "anchor_offsets",
)
TYPE_ARRAYS = ("dominant_ords", "type_populations", "member_offsets", "member_type_ords")


def arrays(tables) -> dict[str, tuple[str, bytes]]:
    found = {name: getattr(tables.topology, name) for name in TOPOLOGY_ARRAYS}
    found.update((name, getattr(tables, name)) for name in TYPE_ARRAYS)
    return {name: (array.dtype.str, array.tobytes()) for name, array in found.items()}


def new_entity(graph: KnowledgeGraph, entity: str, number: int = 0) -> None:
    """A labelled, typed entity with an edge out and an edge in."""
    entities, predicates = sorted(graph.entities()), sorted(graph.edge_predicates())
    graph.add_label(entity, f"written{number} entity")
    graph.add_type(entity, sorted(graph.types())[number % 3])
    graph.add(entity, predicates[number % len(predicates)], entities[(7 * number) % len(entities)])
    graph.add(entities[-1 - number], predicates[0], entity)


def sorts_last(graph: KnowledgeGraph) -> None:
    new_entity(graph, "zz:written")


def sorts_first(graph: KnowledgeGraph) -> None:
    new_entity(graph, "ex:0written")


def sorts_in_the_middle(graph: KnowledgeGraph) -> None:
    entities = sorted(graph.entities())
    new_entity(graph, entities[len(entities) // 2] + "x")


def adds_a_predicate(graph: KnowledgeGraph) -> None:
    """An edge between old entities over a predicate that sorts first."""
    entities = sorted(graph.entities())
    graph.add(entities[3], "a:new-predicate", entities[5])


def links_old_entities(graph: KnowledgeGraph) -> None:
    entities, predicate = sorted(graph.entities()), sorted(graph.edge_predicates())[0]
    left, right = next(
        (left, right)
        for left in entities
        for right in reversed(entities)
        if right not in graph.objects(left, predicate)
    )
    graph.add(left, predicate, right)


def flips_dominant_types(graph: KnowledgeGraph) -> None:
    """See :func:`two_typed`: the smaller type outgrows the larger one."""
    smaller, larger, member = two_typed(graph)
    grow = graph.type_count(larger) - graph.type_count(smaller) + 1
    outsiders = sorted(graph.entities() - graph.entities_of_type(smaller))
    for entity in [e for e in outsiders if e != member][:grow]:
        graph.add_type(entity, smaller)


def burst(graph: KnowledgeGraph) -> None:
    """New entities sorting first, last and between, four triples each,
    plus an old-entity edge: as many triples as still derive."""
    start, number = len(graph), 0
    while len(graph) + 5 - start <= GraphTopology.max_delta_fraction * (len(graph) + 5):
        entities = sorted(graph.entities())
        ids = ("ex:0burst", "zz:burst", entities[len(entities) // 3] + "b")
        new_entity(graph, f"{ids[number % 3]}{number}", number)
        number += 1
    links_old_entities(graph)
    assert number >= 3


WRITES = {
    "sorts-last": sorts_last,
    "sorts-first": sorts_first,
    "sorts-in-the-middle": sorts_in_the_middle,
    "adds-a-predicate": adds_a_predicate,
    "links-old-entities": links_old_entities,
    "flips-dominant-types": flips_dominant_types,
    "burst": burst,
}


def two_typed(graph: KnowledgeGraph) -> tuple[str, str, str]:
    """``(smaller, larger, member)``: ``member`` holds both types, the
    smaller one its dominant type (made so by :func:`prepared`)."""
    by_size = sorted(graph.types(), key=lambda t: (graph.type_count(t), t))
    smaller, larger = by_size[0], by_size[2]
    members = sorted(graph.entities_of_type(smaller) & graph.entities_of_type(larger))
    return smaller, larger, members[0]


def prepared(write: str):
    """The graph the system is made over; for the dominant-type flip one
    member of a larger type also joins the smallest type."""
    graph = build_random_kg(GRAPH_SHAPES["default"])
    if write == "flips-dominant-types":
        by_size = sorted(graph.types(), key=lambda t: (graph.type_count(t), t))
        smaller, larger = by_size[0], by_size[2]
        member = sorted(graph.entities_of_type(larger) - graph.entities_of_type(smaller))[0]
        graph.add_type(member, smaller)
        assert graph.dominant_type(member) == smaller
    return graph


@pytest.mark.parametrize("write", WRITES)
@pytest.mark.parametrize("origin", ORIGINS)
def test_a_derived_epoch_equals_the_full_sort(origin, write, tmp_path):
    with origin_system(prepared(write), origin, str(tmp_path)) as system:
        graph, index = system.graph, system.feature_index
        before = index.snapshot().tables
        pinned = arrays(before)
        if write == "flips-dominant-types":
            member = two_typed(graph)[2]
            dominant = index.snapshot().dominant_type(member)
        rebuilds = index.rebuild_info()
        WRITES[write](graph)
        assert GraphTopology.derives(before.topology._columns.triples, len(graph))
        derived = index.snapshot().tables
        after = index.rebuild_info()
        assert after["delta_rebuilds"] == rebuilds["delta_rebuilds"] + 1
        assert after["full_rebuilds"] == rebuilds["full_rebuilds"]
        fresh = KnowledgeGraph("fresh")
        fresh.add_all(graph.triples)
        full = SemanticFeatureIndex.build(fresh).snapshot().tables
        assert derived.entity_ids == full.entity_ids and derived.type_ids == full.type_ids
        assert derived.predicates == full.predicates
        got, want = arrays(derived), arrays(full)
        for name in want:
            assert got[name] == want[name], name
        assert arrays(before) == pinned
        if write == "flips-dominant-types":
            assert index.snapshot().dominant_type(member) != dominant
