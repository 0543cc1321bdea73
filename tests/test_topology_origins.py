"""The one edge CSR answers like the scalar walks, whatever made it.

An epoch's :class:`~repro.kg.topology.GraphTopology` is sorted by a
build, restored from the ``feature-tables`` segment by a load, or
derived from the previous epoch's by a write (the serial matrix's
``ORIGINS``).  Whichever it is, it is the feature tables' holder CSR
and the graph's memoised topology at once, its anchored rows are the
graph's edges in both directions, and every entity's feature row equals
the scalar walk over the graph.  Both directories saved in earlier
layouts carry a ``graph-topology`` segment a load no longer reads: they
load with no storage failure and select like a build.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.datasets import build_geography_kg, build_random_kg, small_academic_kg, small_movie_kg
from repro.engine import PivotE, PivotEApi
from repro.features.extraction import features_of_entity
from repro.kg import GraphTopology, graph_topology
from serial_matrix import GRAPH_SHAPES, ORIGINS, origin_system
from test_kg_topology import assert_anchored_rows_are_the_edges

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
EARLIER_LAYOUTS = ("system-before-feature-codes", "system-before-one-dictionary")
CURATED = {"movies-small": small_movie_kg, "academic-small": small_academic_kg, "geography": build_geography_kg}


def probes(graph, count: int = 6) -> list[str]:
    entities = sorted(graph.entities())
    return entities[:: max(1, len(entities) // count)][:count]


def assert_rows_match_the_walks(system: PivotE) -> None:
    graph = system.graph
    topology = graph_topology(graph)
    tables = system.feature_index.snapshot().tables
    assert tables.topology is topology  # one edge CSR per epoch
    assert_anchored_rows_are_the_edges(graph, topology, probes(graph))
    keys = tables.feature_keys()
    rows = topology.feature_rows(range(topology.num_entities))
    for entity, row in zip(topology.entity_ids, rows):
        assert [keys[ordinal] for ordinal in row.tolist()] == sorted(
            feature.key for feature in features_of_entity(graph, entity)
        ), entity


@pytest.mark.parametrize("origin", ORIGINS)
@pytest.mark.parametrize("shape", sorted(GRAPH_SHAPES))
def test_anchored_and_feature_rows_equal_the_scalar_walks(tmp_path, monkeypatch, shape, origin):
    # A write on these small graphs is past the crossover: derive it anyway.
    monkeypatch.setattr(GraphTopology, "max_delta_fraction", 1.0)
    graph = build_random_kg(GRAPH_SHAPES[shape])
    with origin_system(graph, origin, str(tmp_path / "system")) as system:
        assert_rows_match_the_walks(system)
        rebuilds = system.stats().rebuilds
        if origin == "written":
            assert rebuilds["delta_rebuilds"] == 1
        if origin == "loaded":  # the restored CSR was installed, not sorted again
            assert system.stats().traversal.rebuilds == 0


@pytest.mark.parametrize("origin", ORIGINS)
@pytest.mark.parametrize("dataset", sorted(CURATED))
def test_a_curated_graph_has_the_same_rows_whatever_made_them(tmp_path, monkeypatch, dataset, origin):
    # The curated graphs add aliases, categories and literals to the edges.
    monkeypatch.setattr(GraphTopology, "max_delta_fraction", 1.0)
    graph = CURATED[dataset]()
    with origin_system(graph, origin, str(tmp_path / "system")) as system:
        assert_rows_match_the_walks(system)
        if origin == "written":
            assert system.stats().rebuilds["delta_rebuilds"] == 1


def answers(system: PivotE) -> list[object]:
    graph = system.graph
    picked = probes(graph)
    api = PivotEApi(system)
    api.handle({"action": "start_session", "session_id": "s"})
    return [api.handle({"action": "select_entity", "session_id": "s", "entity": probe}) for probe in picked]


@pytest.mark.parametrize("layout", EARLIER_LAYOUTS)
def test_a_directory_of_an_earlier_layout_selects_like_a_build(tmp_path, layout):
    directory = str(tmp_path / layout)
    shutil.copytree(os.path.join(FIXTURES, layout), directory)
    with PivotE.load(directory) as loaded:
        assert loaded.stats().storage.failures == 0
        assert_rows_match_the_walks(loaded)
        with PivotE(loaded.graph.copy()) as built:
            assert answers(loaded) == answers(built)
        assert loaded.stats().traversal.rebuilds == 0
