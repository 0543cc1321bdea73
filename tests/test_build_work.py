"""The work a build and a write do, and what the feature snapshot answers.

``PivotE(graph)`` makes what ``PivotE.load`` adopts: the search index is
sorted out of token rows and the feature snapshot is the tables sorted
out of the column log, so a build never indexes a document term by term
(``InvertedIndex.add_document``), never walks an entity's edges
(``features_of_entity``) and never decodes a snapshot row into a set
(``FeatureIndexSnapshot.features_of`` / ``holders_of``); and it analyses each distinct string
once per analyzer.  A write derives the next snapshot's tables from the
last, so it does none of that either — after a build and after a load;
and a search-index write copies the documents written since the base,
never a whole-field map, so its allocation peak stays within a budget.
What the snapshot answers is checked against the dict maps built from
``features_of_entity`` (the oracle), for every entity and feature.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter, defaultdict

import pytest

from columnar_oracle import maps
from repro.datasets import RandomKGConfig, build_random_kg
from repro.engine import PivotE
from repro.features import SemanticFeature, SemanticFeatureIndex, extraction
from repro.features.feature_index import FeatureIndexSnapshot
from repro.index import InvertedIndex
from repro.kg import GraphTopology, KnowledgeGraph, graph_topology
from repro.text import Analyzer

ENTITIES = 2000


def calls_of(monkeypatch, owner, name: str) -> list[tuple]:
    """The argument tuples of every call of ``owner.name`` from now on; a
    module function is caught through every ``repro`` module's binding."""
    calls: list[tuple] = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, recorded)
    else:
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.fixture
def spies(monkeypatch):
    """``(calls of the per-entity and row-decoding paths, Analyzer.analyze calls)``."""
    per_entity = {
        label: calls_of(monkeypatch, owner, label.split(".")[-1])
        for label, owner in (
            ("InvertedIndex.merged", InvertedIndex),
            ("features_of_entity", extraction),
            ("FeatureIndexSnapshot.features_of", FeatureIndexSnapshot),
            ("FeatureIndexSnapshot.holders_of", FeatureIndexSnapshot),
        )
    }
    return per_entity, calls_of(monkeypatch, Analyzer, "analyze")


def counts(calls: dict[str, list]) -> dict[str, int]:
    return {label: len(made) for label, made in calls.items()}


def write(graph: KnowledgeGraph, number: int) -> str:
    """A new entity linked to two existing ones, typed like the first."""
    entity = f"ex:written{number}"
    anchors = sorted(graph.entities())[number * 7 : number * 7 + 2]
    graph.add_label(entity, f"written entity {number}")
    graph.add_type(entity, graph.dominant_type(anchors[0]) or "ex:T")
    predicate = sorted(graph.edge_predicates())[number % 3]
    graph.add(entity, predicate, anchors[0])
    graph.add(anchors[1], predicate, entity)
    return entity


def oracle(graph: KnowledgeGraph):
    """``(entity → features, feature → holders)`` by walking every entity's edges."""
    features = {
        entity: frozenset(extraction.features_of_entity(graph, entity))
        for entity in graph.entities()
    }
    holders: dict[SemanticFeature, set[str]] = defaultdict(set)
    for entity, held in features.items():
        for feature in held:
            holders[feature].add(entity)
    return features, holders


def assert_snapshot_answers_like_the_oracle(
    snapshot: FeatureIndexSnapshot, graph: KnowledgeGraph
) -> None:
    features, holders = oracle(graph)
    every_feature = sorted(holders)
    types = sorted(graph.types())
    for entity in sorted(features):
        assert snapshot.features_of(entity) == features[entity], entity
        assert snapshot.dominant_type(entity) == graph.dominant_type(entity), entity
        for feature in features[entity]:
            assert snapshot.holds(entity, feature)
    for position, feature in enumerate(every_feature):
        assert snapshot.holders_of(feature) == holders[feature], feature
        outsider = every_feature[(position * 7919) % len(every_feature)]
        if outsider not in features[min(holders[feature])]:
            assert not snapshot.holds(min(holders[feature]), outsider)
        for type_id in types:
            members = graph.entities_of_type(type_id)
            assert snapshot.type_conditional_count(feature, type_id) == (
                len(holders[feature] & members), len(members)
            )
    nobody = SemanticFeature("ex:nobody", "ex:p")
    assert snapshot.holders_of(nobody) == frozenset()
    assert snapshot.features_of("ex:nobody") == frozenset()
    assert not snapshot.holds("ex:nobody", every_feature[0])


def test_a_build_and_its_writes_do_no_per_entity_work(spies):
    per_entity, analysed = spies
    graph = build_random_kg(RandomKGConfig(num_entities=ENTITIES, seed=1))
    system = PivotE(graph)
    assert counts(per_entity) == dict.fromkeys(per_entity, 0)
    assert 0 < len(analysed) == len(set(analysed))  # once per (analyzer, string)
    snapshot = system.feature_index.snapshot()
    for number in range(3):
        entity = write(graph, number)
        system.search_engine.add_entity(entity)
        fresh = system.feature_index.snapshot()
        assert fresh is not snapshot
        assert fresh.tables.topology is graph_topology(graph)  # one edge CSR per epoch
        system.recommend([entity])  # the recommendation path decodes no row into a set
        snapshot = fresh
    assert counts(per_entity) == dict.fromkeys(per_entity, 0)
    assert system.feature_index.rebuild_info() == {
        "full_rebuilds": 1, "delta_rebuilds": 3, "delta_entities": 3 * 3,
    }


def test_the_first_write_after_a_load_decodes_no_whole_snapshot(spies, tmp_path):
    per_entity, _ = spies
    graph = build_random_kg(RandomKGConfig(num_entities=500, seed=7))
    PivotE(graph).save(str(tmp_path))
    with PivotE.load(str(tmp_path)) as loaded:
        entity = write(loaded.graph, 0)
        loaded.search_engine.add_entity(entity)
        snapshot = loaded.feature_index.snapshot()
        loaded.recommend([entity])
        for label in ("features_of_entity", "FeatureIndexSnapshot.features_of",
                      "FeatureIndexSnapshot.holders_of"):
            assert not per_entity[label], label
        assert loaded.feature_index.rebuild_info()["delta_rebuilds"] == 1
        assert snapshot.tables.topology is graph_topology(loaded.graph)
        assert_snapshot_answers_like_the_oracle(snapshot, loaded.graph)


def test_the_snapshot_answers_like_the_oracle_after_the_build_and_each_write():
    graph = build_random_kg(RandomKGConfig(num_entities=800, seed=1))
    index = SemanticFeatureIndex.build(graph)
    assert_snapshot_answers_like_the_oracle(index.snapshot(), graph)
    for number in range(2):
        write(graph, number)
        assert_snapshot_answers_like_the_oracle(index.snapshot(), graph)


class TestWholeMapAccessors:
    """``num_features``, ``all_features`` and ``feature_frequency_histogram``
    read the tables: equal to walking the maps, with no row decoded."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equal_the_map_walk(self, seed):
        graph = build_random_kg(RandomKGConfig(num_entities=200 * seed, seed=seed))
        index = SemanticFeatureIndex.build(graph)
        for number in range(3):  # the build, then two writes' derived tables
            got = (index.num_features(), index.all_features(), index.feature_frequency_histogram())
            _, holders = maps(index.snapshot())
            histogram = Counter(len(entities) for entities in holders.values())
            assert got == (len(holders), sorted(holders), dict(histogram))
            write(graph, number)

    def test_an_empty_graph(self):
        index = SemanticFeatureIndex.build(KnowledgeGraph("empty"))
        assert (index.num_features(), index.all_features()) == (0, [])
        assert index.feature_frequency_histogram() == {}


def test_delta_entities_count_the_log_delta(monkeypatch):
    """New entities and the endpoints of new edges, each once."""
    graph = build_random_kg(RandomKGConfig(num_entities=300, seed=5))
    index = SemanticFeatureIndex.build(graph)
    monkeypatch.setattr(GraphTopology, "max_delta_fraction", 1.0)
    anchors = sorted(graph.entities())[:3]
    graph.add_label("ex:lonely", "lonely")  # new, no edge
    graph.add(anchors[0], "ex:p", anchors[1])  # two old endpoints
    graph.add(anchors[1], "ex:p", anchors[2])  # one more old endpoint, one repeated
    graph.add_alias(anchors[2], "ex:alias")  # a new alias entity
    graph.add_type(anchors[0], "ex:T")  # an old entity typed: not affected
    index.snapshot()
    assert index.rebuild_info()["delta_entities"] == 2 + 3
    before, holders = oracle(graph)
    assert maps(index.snapshot()) == (before, {f: frozenset(h) for f, h in holders.items()})


#: ``(first, steady)`` tracemalloc peaks (KiB) of ``SearchEngine.add_entity``
#: per ``(origin, entities)``, measured by :func:`write_peaks` on the commit
#: before the search index became a base CSR plus a delta (each write then
#: copied whole-field count maps).  The budget is a quarter of these.
EARLIER_PEAKS_KIB = {
    ("built", 500): (614.7, 309.4),
    ("built", 2000): (2347.6, 1187.7),
    ("loaded", 500): (619.0, 308.7),
    ("loaded", 2000): (2398.1, 1187.2),
}


def write_peaks(system: PivotE) -> tuple[float, float]:
    """``(first, steady)`` tracemalloc peaks (KiB) of the search index's write.

    Each write (:func:`write`) follows a search, as in a write-then-read
    workload; the first is measured, then the third (the second epoch
    written on top of a written one).
    """
    graph, engine = system.graph, system.search_engine
    peaks = []
    for number in range(3):
        system.search(graph.label(sorted(graph.entities())[number]))
        entity = write(graph, number)
        tracemalloc.start()
        try:
            engine.add_entity(entity)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1024)
        finally:
            tracemalloc.stop()
    return peaks[0], peaks[2]


def e2e_shaped(entities: int) -> KnowledgeGraph:
    return build_random_kg(
        RandomKGConfig(num_entities=entities, target_skew=1.5, avg_out_degree=8.0, seed=1)
    )


@pytest.mark.parametrize("entities", [500, 2000])
@pytest.mark.parametrize("origin", ["built", "loaded"])
def test_a_search_index_write_allocates_within_its_budget(origin, entities, tmp_path):
    graph = e2e_shaped(entities)
    system = PivotE(graph)
    if origin == "loaded":
        system.save(str(tmp_path))
        system.close()
        system = PivotE.load(str(tmp_path))
    with system:
        first, steady = write_peaks(system)
    earlier_first, earlier_steady = EARLIER_PEAKS_KIB[origin, entities]
    assert first < earlier_first / 4, (first, earlier_first)
    assert steady < earlier_steady / 4, (steady, earlier_steady)


#: A one-entity write's feature refresh allocates at most this multiple of
#: the bytes of the arrays its new epoch keeps (the topology's five, the
#: four type tables and the epoch columns' sorted memberships and ranks,
#: less any shared with the previous epoch).  Measured 1.78 at 2,000
#: entities (e2e shape, seed 1) for a write that moves every ordinal: the
#: new arrays plus one holder column re-coded before it is spliced.  A
#: refresh that re-coded or re-sorted the whole CSR measured 3.2.
REFRESH_PEAK_MULTIPLE = 2.0


def kept_bytes(tables, previous=()) -> tuple[int, list]:
    """``(bytes, arrays)`` of the arrays an epoch's feature tables keep,
    counting only those not shared with ``previous`` (an earlier result)."""
    topology, columns = tables.topology, tables.topology._columns
    arrays = [getattr(topology, name) for name in (
        "feature_codes", "holder_offsets", "holder_ordinals", "anchor_features", "anchor_offsets",
    )]
    arrays += [getattr(tables, name) for name in (
        "dominant_ords", "type_populations", "member_offsets", "member_type_ords",
    )]
    arrays += [getattr(columns, name) for name in (
        "typed_entities", "typed_types", "entity_rank", "predicate_rank", "type_rank",
    )]
    shared = {id(array) for array in previous}
    fresh = {id(array): array for array in arrays if id(array) not in shared}
    return sum(array.nbytes for array in fresh.values()), arrays


def test_a_one_entity_refresh_costs_its_delta_plus_copies(monkeypatch):
    """Sorts only the rows the write added; allocates about what it keeps."""
    from repro.kg import columns

    graph = e2e_shaped(ENTITIES)
    index = SemanticFeatureIndex.build(graph)
    _, arrays = kept_bytes(index.snapshot().tables)
    write(graph, 0)  # every written id sorts first: every ordinal moves
    before = len(graph)
    index.snapshot()
    _, arrays = kept_bytes(index.snapshot().tables, arrays)
    write(graph, 1)
    written = len(graph) - before
    sorted_rows = calls_of(monkeypatch, columns, "sort_rows")
    tracemalloc.start()
    try:
        tables = index.snapshot().tables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert index.rebuild_info()["delta_rebuilds"] == 2
    assert sorted_rows and max(call[1].size for call in sorted_rows) <= written
    kept, _ = kept_bytes(tables, arrays)
    assert peak <= REFRESH_PEAK_MULTIPLE * kept, (peak, kept)
