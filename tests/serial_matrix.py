"""Shared inputs of the serial search and recommendation matrices.

``GRAPH_SHAPES`` are the random graphs the kernels' bounds are widened
over.  ``ORIGINS`` are the ways a system's structures come to be, which a
ranking must not depend on:

* ``built`` — an in-RAM build;
* ``loaded`` — a cold start from a ``PivotE.save`` directory: the search
  index and the feature tables are the stored rows, read without
  hydrating the graph;
* ``written`` — a build that has answered a search and a recommendation
  and then taken one write through the public write path, so the search
  view and the feature tables it reads were derived from the previous
  epoch's.
"""

from __future__ import annotations

from repro.config import PivotEConfig
from repro.datasets import RandomKGConfig
from repro.engine import PivotE
from repro.kg import KnowledgeGraph
from repro.search import SearchEngine

GRAPH_SHAPES = {
    "default": RandomKGConfig(num_entities=160, seed=3),
    "two-types": RandomKGConfig(num_entities=160, num_types=2, seed=5),
    "many-types": RandomKGConfig(num_entities=200, num_types=30, seed=9),
    "dense-edges": RandomKGConfig(num_entities=120, avg_out_degree=12.0, seed=11),
    "sparse-edges": RandomKGConfig(num_entities=160, avg_out_degree=1.0, seed=13),
    "hub-skewed": RandomKGConfig(num_entities=160, target_skew=1.2, seed=17),
    "attribute-heavy": RandomKGConfig(num_entities=120, attributes_per_entity=8, seed=19),
    "tiny": RandomKGConfig(num_entities=12, num_types=3, seed=23),
}

ORIGINS = ("built", "loaded", "written")

WRITTEN = "ex:Written"


def largest_type_members(graph: KnowledgeGraph, count: int) -> list[str]:
    """The first ``count`` members, in id order, of the graph's largest type."""
    largest = max(graph.types(), key=lambda t: (graph.type_count(t), t))
    return sorted(graph.entities_of_type(largest))[:count]


def write_entity(graph: KnowledgeGraph, search: SearchEngine) -> str:
    """Add one entity to the graph's largest type and index it.

    Its label is the first entity's plus a new term, and it links to the
    first three entities when the graph has an edge predicate.
    """
    entities = sorted(graph.entities())
    largest = max(graph.types(), key=lambda t: (graph.type_count(t), t))
    graph.add_label(WRITTEN, f"{graph.label(entities[0])} written")
    graph.add_type(WRITTEN, largest)
    for predicate in sorted(graph.edge_predicates())[:1]:
        for target in entities[:3]:
            graph.add(WRITTEN, predicate, target)
    search.add_entity(WRITTEN)
    return WRITTEN


def origin_system(
    graph: KnowledgeGraph,
    origin: str,
    directory: str,
    config: PivotEConfig | None = None,
) -> PivotE:
    """A system over ``graph`` that came to be the ``origin`` way.

    ``graph`` stays the in-RAM graph callers draw queries and seeds from:
    a ``loaded`` system reads its own graph off the snapshot saved under
    ``directory``, and a ``written`` system's write lands in ``graph``.
    """
    config = config or PivotEConfig()
    system = PivotE(graph, config)
    if origin == "loaded":
        system.save(directory)
        system.close()
        loaded = PivotE.load(directory, config)
        assert loaded.stats().storage.failures == 0
        return loaded
    if origin == "written":
        entities = sorted(graph.entities())
        system.search(graph.label(entities[0]), top_k=1)
        system.recommend(largest_type_members(graph, 2))
        write_entity(graph, system.search_engine)
    else:
        assert origin == "built", origin
    return system
