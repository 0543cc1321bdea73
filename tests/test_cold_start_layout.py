"""What a cold start reads, and what it refuses.

A saved system's ``feature-tables`` segment stores the feature codes as
an array and its identifiers as string tables, and an adopted index
answers a search per term from its stored rows.  Here:

* a segment whose checksums hold but whose arrays contradict each other
  is refused at load, counted once, and rebuilt — one case per check;
* a directory saved in the earlier layout (the feature keys listed in
  the JSON manifest, and a ``graph-topology`` segment, which is not
  read) still loads, with no failure, and answers like a fresh build;
* load → first search → first recommendation merges no index field and
  reads the restored holder CSR as the graph's topology;
* the per-term counts read off the stored rows equal a fresh build's.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from index_oracle import assert_same_index
from repro.config import SearchConfig
from repro.datasets import RandomKGConfig, build_random_kg
from repro.engine import PivotE, PivotEApi
from repro.features.columnar import columnar_tables
from repro.index import InvertedIndex
from repro.kg import graph_topology
from repro.search import MixtureLanguageModelScorer, SearchEngine, parse_query
from repro.storage import FEATURE_TABLES_KEY, SegmentBuilder, system_store

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "system-before-feature-codes")
#: The segment that held the adjacency before the feature tables' holder
#: CSR was the graph's topology; directories of that layout still carry it.
OLD_TOPOLOGY_KEY = "graph-topology"
#: What a ``graph-topology`` segment held beside its adjacency before the
#: type filter read the feature tables.
TYPE_FOREST = (
    "type_ids", "type_offsets", "type_members", "type_parents", "type_pre", "type_post",
    "pre_order", "subtree_sizes",
)


def answers(system: PivotE, entity: str) -> list[dict]:
    """A search, a recommendation and a pivot, as the API returns them."""
    api = PivotEApi(system)
    hits = api.handle({"action": "search", "keywords": "entity 4 entity 12"})
    api.handle({"action": "start_session", "session_id": "s"})
    selected = api.handle({"action": "select_entity", "session_id": "s", "entity": entity})
    api.handle({"action": "start_session", "session_id": "p"})
    pivoted = api.handle({"action": "pivot", "session_id": "p", "entity": entity})
    return [hits, selected, pivoted]


# ---------------------------------------------------------------------- #
# Checksums hold, arrays contradict: a counted rebuild
# ---------------------------------------------------------------------- #
def _shifted(by: int):
    def corrupt(array: np.ndarray) -> np.ndarray:
        return array + by

    return corrupt


def _reversed_interior(array: np.ndarray) -> np.ndarray:
    """First and last value kept, the ones between in descending order."""
    array = array.copy()
    array[1:-1] = array[1:-1][::-1]
    return array


def _emptied_type(array: np.ndarray) -> np.ndarray:
    array = array.copy()
    array[0] = 0
    return array


#: case -> (segment, array, corruption)
CORRUPTIONS = {
    "dominant_ords": (FEATURE_TABLES_KEY, "dominant_ords", _shifted(1000)),
    "member_type_ords": (FEATURE_TABLES_KEY, "member_type_ords", _shifted(1000)),
    "member_offsets": (FEATURE_TABLES_KEY, "member_offsets", _reversed_interior),
    "type_populations": (FEATURE_TABLES_KEY, "type_populations", _emptied_type),
    "feature_codes-order": (FEATURE_TABLES_KEY, "feature_codes", _reversed_interior),
    "feature_codes-anchor": (FEATURE_TABLES_KEY, "feature_codes", _shifted(10**9)),
    "holder_ordinals": (FEATURE_TABLES_KEY, "holder_ordinals", _shifted(100_000)),
    "holder_offsets": (FEATURE_TABLES_KEY, "holder_offsets", _reversed_interior),
}


@pytest.fixture(scope="module")
def random_graph():
    return build_random_kg(RandomKGConfig(num_entities=120, seed=11))


@pytest.fixture(scope="module")
def fresh_answers(random_graph):
    with PivotE(random_graph.copy()) as fresh:
        entity = sorted(random_graph.entities())[5]
        return entity, answers(fresh, entity)


def republish(directory: str, key: str, array_name: str, corrupt) -> None:
    """Re-place one segment with one array changed; every checksum holds."""
    store = system_store(directory)
    view = store.attach(key)
    try:
        manifest = view.manifest
        builder = SegmentBuilder()

        def place(node, name=None):
            if isinstance(node, list) and len(node) == 4 and isinstance(node[0], int):
                array = np.array(view.array(node))
                return builder.place(corrupt(array) if name == array_name else array)
            if isinstance(node, dict):
                return {child: place(value, child) for child, value in node.items()}
            return node

        republished = place(manifest)
    finally:
        view.close()
    store.publish(key, republished, builder, extra={"graph_epoch": store.entry(key)["graph_epoch"]})


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_an_inconsistent_segment_degrades_to_a_counted_rebuild(
    tmp_path, random_graph, fresh_answers, case
):
    directory = str(tmp_path / "system")
    with PivotE(random_graph.copy()) as system:
        system.save(directory)
    key, array_name, corrupt = CORRUPTIONS[case]
    republish(directory, key, array_name, corrupt)
    entity, expected = fresh_answers
    with PivotE.load(directory) as loaded:
        assert loaded.stats().storage.failures == 1
        assert answers(loaded, entity) == expected


def test_an_untouched_republish_is_adopted(tmp_path, random_graph, fresh_answers):
    """The harness above changes nothing but the named array."""
    directory = str(tmp_path / "system")
    with PivotE(random_graph.copy()) as system:
        system.save(directory)
    republish(directory, FEATURE_TABLES_KEY, None, None)
    entity, expected = fresh_answers
    with PivotE.load(directory) as loaded:
        assert loaded.stats().storage.failures == 0
        assert answers(loaded, entity) == expected


# ---------------------------------------------------------------------- #
# The earlier layout
# ---------------------------------------------------------------------- #
def test_a_directory_in_the_earlier_layout_loads_and_answers_like_a_fresh_build(tmp_path):
    """Saved before feature codes and string tables were placed: the
    feature keys and every identifier list sit in the JSON manifests."""
    directory = str(tmp_path / "system")
    shutil.copytree(FIXTURE, directory)
    store = system_store(directory)
    view = store.attach(FEATURE_TABLES_KEY)
    try:
        assert "features" in view.manifest and "feature_codes" not in view.manifest
    finally:
        view.close()
    view = store.attach(OLD_TOPOLOGY_KEY)
    try:  # the earlier topology, type forest and all, is carried and ignored
        assert set(TYPE_FOREST) <= set(view.manifest)
    finally:
        view.close()
    with PivotE.load(directory) as loaded:
        assert loaded.stats().storage.failures == 0
        entity = sorted(loaded.graph.entities())[5]
        got = answers(loaded, entity)
        tables = loaded.feature_index.snapshot()._columnar
        with PivotE(loaded.graph.copy()) as fresh:
            assert got == answers(fresh, entity)
            built = columnar_tables(fresh.feature_index.snapshot())
        assert tables.feature_codes.tolist() == built.feature_codes.tolist()
        assert tables.predicates == built.predicates
        assert tables.feature_keys() == built.feature_keys()
    # Saved again, it is in the current layout and still answers alike.
    resaved = str(tmp_path / "resaved")
    with PivotE.load(directory) as loaded:
        loaded.save(resaved)
    assert OLD_TOPOLOGY_KEY not in system_store(resaved).read_manifest()
    with PivotE.load(resaved) as again:
        assert again.stats().storage.failures == 0
        assert answers(again, entity) == got


# ---------------------------------------------------------------------- #
# What the first answers cost
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def saved_2000(tmp_path_factory):
    graph = build_random_kg(
        RandomKGConfig(num_entities=2000, target_skew=1.5, avg_out_degree=8.0, seed=1)
    )
    directory = str(tmp_path_factory.mktemp("cold-start-2000"))
    with PivotE(graph) as system:
        system.save(directory)
    return directory


def test_the_first_answers_read_only_the_rows_they_need(saved_2000, monkeypatch):
    whole_field: list[str] = []
    original = InvertedIndex.merged

    def counted(self, documents):
        whole_field.append(self.name)
        return original(self, documents)

    monkeypatch.setattr(InvertedIndex, "merged", counted)
    with PivotE.load(saved_2000) as loaded:
        api = PivotEApi(loaded)
        response = api.handle({"action": "search", "keywords": "entity 42 entity"})
        assert response["status"] == "ok" and response["hits"]
        api.handle({"action": "start_session", "session_id": "s"})
        entity = response["hits"][0]["entity"]
        selected = api.handle({"action": "select_entity", "session_id": "s", "entity": entity})
        assert selected["status"] == "ok"
        assert whole_field == []
        index = loaded.search_engine.index
        for field in index.fields:
            assert not hasattr(index.field_index(field).base, "_row_of")
        # The documents are numbered by the one dictionary's entity map.
        entity_map = loaded.graph.columns.adopted_maps()["entities"]
        assert index.field_index("names").base.documents.ordinal_of() is entity_map
        assert index.ordinal_of is entity_map
        assert loaded.stats().storage.failures == 0
        assert graph_topology(loaded.graph) is loaded.feature_index.snapshot().tables.topology
        assert loaded.stats().traversal.rebuilds == 0


def test_counts_read_off_the_stored_rows_equal_the_full_scan(saved_2000):
    """Per-term counts, totals and shortest/longest lengths of the stored
    rows equal a fresh build's over the loaded graph."""
    with PivotE.load(saved_2000) as loaded:
        assert_same_index(loaded.search_engine.index, SearchEngine.from_graph(loaded.graph).index)


@pytest.mark.parametrize("smoothing", ("dirichlet", "jelinek-mercer"))
def test_a_search_on_the_stored_rows_equals_the_exhaustive_reference(saved_2000, smoothing):
    """Scores and per-term breakdowns, bit for bit, field restrictions included."""
    with PivotE.load(saved_2000) as loaded:
        index = loaded.search_engine.index
        scorer = MixtureLanguageModelScorer(index, SearchConfig(smoothing=smoothing))
        queries = ["entity 42", "entity 7 entity 1999", "names:entity 12", "unheardof entity"]
        for raw in queries:
            query = parse_query(raw)
            assert scorer.search(query, top_k=10) == scorer.search_exhaustive(query, top_k=10), raw
