"""A saved system's one id dictionary, and what a load of it builds.

The ``graph-triples`` segment's sorted entity, predicate and type tables
are the dictionary: the other segments reference them by count and
CRC-32, and a load decodes each once, builds one entity map and groups
the graph's entity tables into arrays.  Here:

* a fresh save lists no identifier outside the graph segment and writes
  no per-document CRC column; a reference that names another table is
  refused, counted once and rebuilt;
* a directory saved before the dictionary loads with no failure,
  answers like a fresh build and re-saves in the current layout;
* a load's work does not grow with the entities where it need not: the
  objects it keeps, one decode of the entity table, one entity map
  through the first select, and the memory the first lookup and the
  first graph write after it take;
* the feature snapshot's dominant types and type-conditional counts
  equal the graph's after a build, after writes and after a load.
"""

from __future__ import annotations

import gc
import os
import shutil
import tracemalloc

import numpy as np
import pytest

from repro.datasets import RandomKGConfig, build_random_kg
from repro.engine import PivotE, PivotEApi
from repro.features import SemanticFeature
from repro.features.extraction import matching_entities
from repro.features.semantic_feature import Direction
from repro.storage import (
    FEATURE_TABLES_KEY,
    GRAPH_TRIPLES_KEY,
    SEARCH_INDEX_KEY,
    SegmentBuilder,
    SegmentView,
    system_store,
)
from repro.utils.ordinals import OrdinalMap

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
BEFORE_DICTIONARY = os.path.join(FIXTURES, "system-before-one-dictionary")
REFERENCES = {
    SEARCH_INDEX_KEY: ("doc_ids",),
    FEATURE_TABLES_KEY: ("entity_ids", "predicates", "type_ids"),
}
#: The adjacency segment of earlier layouts, which a load does not read.
OLD_TOPOLOGY_KEY = "graph-topology"


def answers(system: PivotE, entity: str) -> list[dict]:
    """A search, a recommendation and a pivot, as the API returns them."""
    api = PivotEApi(system)
    hits = api.handle({"action": "search", "keywords": "entity 4 entity 12"})
    api.handle({"action": "start_session", "session_id": "s"})
    selected = api.handle({"action": "select_entity", "session_id": "s", "entity": entity})
    api.handle({"action": "start_session", "session_id": "p"})
    pivoted = api.handle({"action": "pivot", "session_id": "p", "entity": entity})
    return [hits, selected, pivoted]


def manifests(directory: str, keys: tuple[str, ...] = ()) -> dict[str, dict]:
    store = system_store(directory)
    found = {}
    for key in (GRAPH_TRIPLES_KEY, *REFERENCES, *keys):
        view = store.attach(key)
        try:
            found[key] = view.manifest
        finally:
            view.close()
    return found


def republish(directory: str, key: str, edit) -> None:
    """Re-place one segment with its manifest edited; every checksum holds."""
    store = system_store(directory)
    view = store.attach(key)
    try:
        builder = SegmentBuilder()

        def place(node):
            if isinstance(node, list) and len(node) == 4 and isinstance(node[0], int):
                return builder.place(np.array(view.array(node)))
            if isinstance(node, dict):
                return {child: place(value) for child, value in node.items()}
            return node

        manifest = edit(place(view.manifest))
    finally:
        view.close()
    store.publish(key, manifest, builder, extra={"graph_epoch": store.entry(key)["graph_epoch"]})


def is_reference(table: object) -> bool:
    return isinstance(table, dict) and set(table) == {"count", "crc"}


@pytest.fixture(scope="module")
def random_graph():
    return build_random_kg(RandomKGConfig(num_entities=120, seed=11))


@pytest.fixture(scope="module")
def fresh_answers(random_graph):
    with PivotE(random_graph.copy()) as fresh:
        entity = sorted(random_graph.entities())[5]
        return entity, answers(fresh, entity)


@pytest.fixture
def saved(tmp_path, random_graph) -> str:
    directory = str(tmp_path / "system")
    with PivotE(random_graph.copy()) as system:
        system.save(directory)
    return directory


# ---------------------------------------------------------------------- #
# The layout
# ---------------------------------------------------------------------- #
def test_a_save_lists_every_identifier_once(saved, random_graph, fresh_answers):
    found = manifests(saved)
    for name in ("entities", "predicates", "types"):
        assert "rank" in found[GRAPH_TRIPLES_KEY]["tables"][name]
    for key, names in REFERENCES.items():
        for name in names:
            assert is_reference(found[key][name]), (key, name)
    assert found[FEATURE_TABLES_KEY]["entity_ids"]["count"] == random_graph.num_entities()
    assert "crcs" not in found[SEARCH_INDEX_KEY]
    entity, expected = fresh_answers
    with PivotE.load(saved) as loaded:
        assert loaded.stats().storage.failures == 0
        assert answers(loaded, entity) == expected


@pytest.mark.parametrize(
    "key, name, change",
    [
        (FEATURE_TABLES_KEY, "entity_ids", {"crc": 1}),
        (FEATURE_TABLES_KEY, "predicates", {"count": 10**6}),
        (SEARCH_INDEX_KEY, "doc_ids", {"crc": 1}),
    ],
)
def test_a_reference_to_another_table_is_a_counted_rebuild(
    saved, fresh_answers, key, name, change
):
    def edit(manifest):
        table = manifest[name]
        return {**manifest, name: {**table, **{k: table[k] ^ v for k, v in change.items()}}}

    republish(saved, key, edit)
    entity, expected = fresh_answers
    with PivotE.load(saved) as loaded:
        assert loaded.stats().storage.failures == 1
        assert answers(loaded, entity) == expected


# ---------------------------------------------------------------------- #
# The layout before the dictionary
# ---------------------------------------------------------------------- #
def test_a_directory_saved_before_the_dictionary_loads_and_resaves(tmp_path):
    """Saved with an id list in every segment, a CRC per document and the
    graph's tables in first-seen order."""
    directory = str(tmp_path / "system")
    shutil.copytree(BEFORE_DICTIONARY, directory)
    old = manifests(directory, (OLD_TOPOLOGY_KEY,))
    assert "rank" not in old[GRAPH_TRIPLES_KEY]["tables"]["entities"]
    assert "crcs" in old[SEARCH_INDEX_KEY] and "text" in old[SEARCH_INDEX_KEY]["doc_ids"]
    assert "type_ids" not in old[FEATURE_TABLES_KEY]
    assert {"type_members", "type_parents", "pre_order"} <= set(old[OLD_TOPOLOGY_KEY])
    with PivotE.load(directory) as loaded:
        assert loaded.stats().storage.failures == 0
        entity = sorted(loaded.graph.entities())[5]
        got = answers(loaded, entity)
        with PivotE(loaded.graph.copy()) as fresh:
            assert got == answers(fresh, entity)
    resaved = str(tmp_path / "resaved")
    with PivotE.load(directory) as loaded:
        loaded.save(resaved)
    new = manifests(resaved)
    assert "rank" in new[GRAPH_TRIPLES_KEY]["tables"]["entities"]
    assert "crcs" not in new[SEARCH_INDEX_KEY]
    for key, names in REFERENCES.items():
        assert all(is_reference(new[key][name]) for name in names), key
    assert OLD_TOPOLOGY_KEY not in system_store(resaved).read_manifest()
    with PivotE.load(resaved) as again:
        assert again.stats().storage.failures == 0
        assert answers(again, entity) == got


# ---------------------------------------------------------------------- #
# What a load does
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def budget_systems(tmp_path_factory):
    directories = {}
    for size in (300, 500, 2000):
        graph = build_random_kg(
            RandomKGConfig(num_entities=size, target_skew=1.5, avg_out_degree=8.0, seed=1)
        )
        directories[size] = str(tmp_path_factory.mktemp(f"budget-{size}"))
        with PivotE(graph) as system:
            system.save(directories[size])
    return directories


def test_a_load_does_no_per_entity_work_it_can_avoid(budget_systems, monkeypatch):
    with PivotE.load(budget_systems[300]) as warm:  # imports and first-call memos
        answers(warm, "pivote:entity_1")

    decoded: list[str] = []
    string_column = SegmentView.string_column

    def counted_decode(self, table, name="strings"):
        decoded.append(name)
        return string_column(self, table, name)

    maps: list[int] = []
    ordinal_map_init = OrdinalMap.__init__

    def counted_map(self, ids, *args, **kwargs):
        maps.append(len(ids))
        ordinal_map_init(self, ids, *args, **kwargs)

    monkeypatch.setattr(SegmentView, "string_column", counted_decode)
    monkeypatch.setattr(OrdinalMap, "__init__", counted_map)
    kept, peaks = {}, {}
    for size in (500, 2000):
        decoded.clear()
        maps.clear()
        gc.collect()
        before = len(gc.get_objects())
        system = PivotE.load(budget_systems[size])
        gc.collect()
        kept[size] = len(gc.get_objects()) - before
        try:
            graph = system.graph
            api = PivotEApi(system)
            hits = api.handle({"action": "search", "keywords": "entity 42 entity"})["hits"]
            api.handle({"action": "start_session", "session_id": "s"})
            selected = api.handle(
                {"action": "select_entity", "session_id": "s", "entity": hits[0]["entity"]}
            )
            assert selected["status"] == "ok"
            assert system.stats().storage.failures == 0
            assert decoded.count("entities") == 1
            assert not {"entity_ids", "doc_ids"} & set(decoded)
            assert maps.count(graph.num_entities()) == 1
            # The first lookup and the first write read and append rows:
            # no pass over the graph, so their memory does not grow with it.
            entity = hits[0]["entity"]
            tracemalloc.start()
            try:
                system.lookup(entity)
                lookup_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                assert graph.add(entity, "pivote:rel0", "pivote:written")
                peaks[size] = (lookup_peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        finally:
            system.close()
    assert abs(kept[2000] - kept[500]) < 100, kept
    for phase, (small, large) in enumerate(zip(peaks[500], peaks[2000])):
        assert large < 2**20 and large <= small + 2**14, (("lookup", "write")[phase], peaks)


# ---------------------------------------------------------------------- #
# Types off the feature tables
# ---------------------------------------------------------------------- #
def assert_types_match(system: PivotE) -> None:
    """Every entity's dominant type and every (feature, type) pair's counts
    equal the graph's, the holders by a graph walk."""
    graph = system.graph
    snapshot = system.feature_index.snapshot()
    for entity in sorted(graph.entities()) + ["ex:nobody"]:
        assert snapshot.dominant_type(entity) == graph.dominant_type(entity), entity
    types = sorted(graph.types()) + ["ex:no-such-type"]
    members = {type_id: graph.entities_of_type(type_id) for type_id in types}
    features = [
        SemanticFeature(anchor, predicate, Direction(direction))
        for anchor, predicate, direction in snapshot.tables.feature_keys()
    ] + [SemanticFeature("ex:nobody", "ex:p")]
    for feature in features:
        holders = matching_entities(graph, feature)
        for type_id in types:
            assert snapshot.type_conditional_count(feature, type_id) == (
                len(holders & members[type_id]),
                graph.type_count(type_id),
            ), (feature, type_id)


def test_types_off_the_tables_equal_the_graph(tmp_path):
    graph = build_random_kg(RandomKGConfig(num_entities=60, seed=5))
    entities = sorted(graph.entities())
    with PivotE(graph) as system:
        assert_types_match(system)  # built
        graph.add_type(entities[0], "pivote:Rare")
        graph.add_type(entities[1], "pivote:Type0")
        graph.add(entities[2], "pivote:p0", "pivote:written")
        system.search_engine.add_entity("pivote:written")
        assert_types_match(system)  # derived after writes
        system.save(str(tmp_path / "system"))
    with PivotE.load(str(tmp_path / "system")) as loaded:
        assert_types_match(loaded)  # decoded
