"""An adopted graph == the replayed one; a restored snapshot == a built one.

``PivotE.load`` does not replay triples: the graph adopts its saved
column log (``KnowledgeGraph.adopt``) and answers every accessor from
its rows, and the feature snapshot answers from the saved tables,
decoding a row when asked for it.  Everything here compares such a
loaded object with one built the long way — ``add`` by ``add``,
``features_of_entity`` by ``features_of_entity`` — over hypothesis
graphs with literals carrying datatype and language tags, categories,
redirects, duplicate writes and strings containing NUL, newline, quotes
and non-BMP characters; both graphs are also checked against the
dict-of-sets oracle (:mod:`graph_oracle`).
"""

from __future__ import annotations

import os
import sys
import threading
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import RandomKGConfig, build_random_kg, small_academic_kg, small_movie_kg
from repro.engine import PivotE, PivotEApi
from repro.features import SemanticFeature, SemanticFeatureIndex
from repro.features.columnar import columnar_tables
from repro.features.feature_index import FeatureIndexSnapshot
from repro.kg import GraphTopology, KnowledgeGraph, Literal, Triple, install_topology
from repro.kg.namespaces import DCT_SUBJECT, DISAMBIGUATES, RDF_TYPE, RDFS_LABEL, REDIRECT
from repro.storage import SegmentBuilder, SegmentView, encode_feature_tables, encode_graph_triples
from repro.storage.kgstore import restore_feature_snapshot
from repro.viz import entity_profile

from columnar_oracle import maps
from graph_oracle import GraphOracle
from test_graph_oracle import assert_accessors_match

ODD = ["a", "b\0c", "line\nbreak", 'say "hi"', "it's", "back\\slash", "𝄞 clef", "é", " ", ""]
ENTITIES = ["ex:e0", "ex:e1", "ex:e2", "ex:e\0nul", "ex:𝄞", 'ex:"q"', "ex:e\n6"]
PREDICATES = ["ex:p0", "ex:p1", "ex:attr"]
TYPES = ["ex:T0", "ex:T1", "ex:T\0"]

entity = st.sampled_from(ENTITIES)
literal = st.builds(
    Literal, st.sampled_from(ODD), st.sampled_from(["string", "integer", "ex:dt\0"]),
    st.sampled_from(["", "en", "de-CH"]),
)
triple = st.one_of(
    st.builds(Triple, entity, st.sampled_from(PREDICATES), entity),
    st.builds(Triple, entity, st.just(RDF_TYPE), st.sampled_from(TYPES)),
    st.builds(Triple, entity, st.sampled_from([REDIRECT, DISAMBIGUATES]), st.sampled_from(["ex:alias", "ex:e0"])),
    st.builds(Triple, entity, st.just(DCT_SUBJECT), st.sampled_from(["exc:c0", "exc:\n1", "ex:e1"])),
    st.builds(Triple, entity, st.sampled_from([RDFS_LABEL, "ex:attr", RDF_TYPE, DCT_SUBJECT]), literal),
)
#: Small alphabets on purpose: most lists repeat a triple (a duplicate ``add``).
triples = st.lists(triple, max_size=40)

ENTITY_TABLE_READS = (
    "epoch", "__len__", "entities", "num_entities", "types", "type_tables",
)
PER_ENTITY_TABLE_READS = ("has_entity", "types_of", "dominant_type", "labels_of", "label")
WHOLE_READS = ("predicates", "edge_predicates", "num_edges", "triples", "describe")
PER_ENTITY_READS = (
    "outgoing", "incoming", "neighbours", "degree", "categories_of", "aliases_of",
    "attributes_of", "entity_or_none",
)


def read(graph: KnowledgeGraph, name: str, *args):
    value = getattr(graph, name)
    return value(*args) if callable(value) else value


def segment_bytes(graph: KnowledgeGraph) -> bytes:
    manifest, builder = encode_graph_triples(
        SimpleNamespace(uid=0, epoch=graph.epoch), graph.columns.export()
    )
    encoded = SegmentBuilder.encode_manifest(manifest)
    buffer = bytearray(builder.total_size(encoded)[0])
    builder.write_into(buffer, encoded)
    return bytes(buffer)


def adopted_from(segment: bytes, name: str = "kg") -> KnowledgeGraph:
    columns = SegmentView(segment, verify=True).graph_columns()
    columns.check()
    return KnowledgeGraph.adopt(columns, name=name)


def assert_same_entity_tables(adopted: KnowledgeGraph, replayed: KnowledgeGraph, probes) -> None:
    for name in ENTITY_TABLE_READS:
        assert read(adopted, name) == read(replayed, name), name
    for probe in probes:
        for name in PER_ENTITY_TABLE_READS:
            assert read(adopted, name, probe) == read(replayed, name, probe), (name, probe)
    for type_id in replayed.types() | {"ex:no-such-type"}:
        assert adopted.entities_of_type(type_id) == replayed.entities_of_type(type_id)
        assert adopted.type_count(type_id) == replayed.type_count(type_id)


def assert_same_graph(adopted: KnowledgeGraph, replayed: KnowledgeGraph, probes) -> None:
    assert_same_entity_tables(adopted, replayed, probes)
    for name in WHOLE_READS:
        assert read(adopted, name) == read(replayed, name), name
    for probe in probes:
        for name in PER_ENTITY_READS:
            assert read(adopted, name, probe) == read(replayed, name, probe), (name, probe)
        for other in probes:
            assert adopted.predicates_between(probe, other) == replayed.predicates_between(probe, other)
    for predicate in replayed.predicates():
        assert adopted.subjects_of_predicate(predicate) == replayed.subjects_of_predicate(predicate)
        assert adopted.objects_of_predicate(predicate) == replayed.objects_of_predicate(predicate)
        assert adopted.predicate_frequency(predicate) == replayed.predicate_frequency(predicate)
        for probe in probes:
            assert adopted.objects(probe, predicate) == replayed.objects(probe, predicate)
            assert adopted.subjects(predicate, probe) == replayed.subjects(predicate, probe)
    for category in ("exc:c0", "exc:\n1", "ex:e1"):
        assert adopted.entities_in_category(category) == replayed.entities_in_category(category)


def assert_same_epochs(adopted: KnowledgeGraph, replayed: KnowledgeGraph) -> None:
    for cut in range(len(replayed) + 1):
        got, want = adopted.columns.epoch(cut), replayed.columns.epoch(cut)
        for name in ("triples", "entity_ids", "ordinal_of", "predicates", "type_ids", "num_edges"):
            assert getattr(got, name) == getattr(want, name), (cut, name)
        arrays = zip(("subjects", "predicates", "objects", "typed_entities", "typed_types"),
                     (*got.edge_rows(0), got.typed_entities, got.typed_types),
                     (*want.edge_rows(0), want.typed_entities, want.typed_types))
        for name, left, right in arrays:
            assert left.dtype == right.dtype and left.tobytes() == right.tobytes(), (cut, name)


# ---------------------------------------------------------------------- #
# The graph
# ---------------------------------------------------------------------- #
class TestAdoptedGraph:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(triples, triples)
    def test_adopted_equals_replayed_before_and_after_writes(self, written, later):
        replayed = KnowledgeGraph("hyp")
        replayed.add_all(written)
        oracle = GraphOracle(written)
        segment = segment_bytes(replayed)
        adopted = adopted_from(segment, "hyp")
        probes = [*ENTITIES, "ex:alias", "ex:nobody"]

        assert_same_epochs(adopted, replayed)
        assert segment_bytes(adopted) == segment  # save -> load -> save, byte for byte
        assert_same_graph(adopted, replayed, probes)
        assert_accessors_match(adopted, oracle)

        assert adopted.add_all(later) == replayed.add_all(later)  # writes land on both alike
        for triple in later:
            oracle.add_triple(triple)
        assert_same_graph(adopted, replayed, probes)
        assert_accessors_match(adopted, oracle)
        assert_same_epochs(adopted, replayed)
        assert segment_bytes(adopted) == segment_bytes(replayed)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(triples, triples)
    def test_a_write_is_the_first_thing_asked_of_an_adopted_graph(self, written, later):
        replayed = KnowledgeGraph("hyp")
        replayed.add_all(written)
        adopted = adopted_from(segment_bytes(replayed), "hyp")
        assert [adopted.add_triple(item) for item in later] == [
            replayed.add_triple(item) for item in later
        ]
        assert_same_graph(adopted, replayed, ENTITIES)
        assert_same_epochs(adopted, replayed)

    @pytest.mark.parametrize("origin", ("built", "adopted"))
    def test_concurrent_first_reads_answer_alike(self, origin):
        """Eight readers race to a graph's first reads — a built graph
        groups its rows then, an adopted one after the write below."""
        graph = build_random_kg(RandomKGConfig(num_entities=300, seed=9))
        oracle = GraphOracle(graph.triples)
        served = graph if origin == "built" else adopted_from(segment_bytes(graph), graph.name)
        if origin == "adopted":
            written = Triple("ex:written", "pivote:rel0", "pivote:entity_1")
            assert served.add_triple(written) and oracle.add_triple(written)
        probes = sorted(oracle.entities())
        failures: list[BaseException] = []

        def reader(offset: int) -> None:
            try:
                for probe in probes[offset::8]:
                    assert served.outgoing(probe) == oracle.outgoing(probe)
                    assert served.incoming(probe) == oracle.incoming(probe)
                    assert served.attributes_of(probe) == oracle.attributes_of(probe)
            except BaseException as error:  # noqa: BLE001 - reported by the main thread
                failures.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(offset,)) for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads) and not failures


# ---------------------------------------------------------------------- #
# The feature snapshot
# ---------------------------------------------------------------------- #
class TestRestoredSnapshot:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(triples, triples, st.booleans())
    def test_restored_answers_like_built_and_survives_a_write(self, written, later, from_segment):
        graph = KnowledgeGraph("hyp")
        graph.add_all(written)
        index = SemanticFeatureIndex.build(graph)
        built = index.snapshot()
        restored = FeatureIndexSnapshot(graph, columnar_tables(built), built.epoch, built.triples)
        if from_segment:  # decoded tables: the stored arrays, through the codec
            tables = columnar_tables(built)
            manifest, builder = encode_feature_tables(
                SimpleNamespace(uid=index.uid, epoch=tables.epoch), tables
            )
            encoded = SegmentBuilder.encode_manifest(manifest)
            buffer = bytearray(builder.total_size(encoded)[0])
            builder.write_into(buffer, encoded)
            restored = restore_feature_snapshot(graph, SegmentView(buffer, verify=True))
        entity_features, feature_entities = maps(built)
        features = sorted(feature_entities)
        for probe in [*sorted(entity_features)[::2], "ex:nobody"]:
            assert restored.features_of(probe) == built.features_of(probe)
            for feature in features[::2]:
                assert restored.holds(probe, feature) == built.holds(probe, feature)
        for feature in [*features[::2], SemanticFeature("ex:nobody", "ex:p0")]:
            assert restored.holders_of(feature) == built.holders_of(feature)
            for type_id in [*TYPES, "ex:no-such-type"]:
                assert restored.type_conditional_count(feature, type_id) == (
                    built.type_conditional_count(feature, type_id)
                )

        # A write after the load: the delta derives from the restored CSR.
        adopting = SemanticFeatureIndex.restore(graph, restored)
        install_topology(graph, restored.tables.topology)  # as PivotE.load does
        graph.add_all(later)
        graph.add("ex:e0", "ex:p0", "ex:written")
        with patch.object(GraphTopology, "max_delta_fraction", 1.0):
            written = adopting.snapshot()
        assert adopting.rebuild_info()["delta_rebuilds"] == 1
        assert maps(written) == maps(SemanticFeatureIndex.build(graph).snapshot())
        assert maps(restored) == maps(built)  # and the pinned predecessor is unchanged


# ---------------------------------------------------------------------- #
# The system
# ---------------------------------------------------------------------- #
DATASETS = {
    "movies": small_movie_kg,
    "academic": small_academic_kg,
    "random": lambda: build_random_kg(RandomKGConfig(num_entities=200, seed=23)),
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def saved(request, tmp_path_factory):
    graph = DATASETS[request.param]()
    directory = str(tmp_path_factory.mktemp("adoption") / request.param)
    with PivotE(graph) as system:
        system.save(directory)
    return graph, directory


def first_answers(system: PivotE, graph: KnowledgeGraph) -> list[dict]:
    api = PivotEApi(system)
    probe = sorted(graph.entities())[len(graph.entities()) // 2]
    api.handle({"action": "start_session", "session_id": "s"})
    return [
        api.handle({"action": "search", "keywords": graph.label(probe)}),
        api.handle({"action": "select_entity", "session_id": "s", "entity": probe}),
    ]


def snap_bytes(directory: str, key: str) -> bytes:
    key_dir = os.path.join(directory, "store", key)
    (name,) = os.listdir(key_dir)
    with open(os.path.join(key_dir, name), "rb") as handle:
        return handle.read()


class TestLoadedSystem:
    def test_first_answers_equal_the_saving_systems(self, saved):
        graph, directory = saved
        with PivotE(graph) as built, PivotE.load(directory) as loaded:
            assert first_answers(loaded, graph) == first_answers(built, graph)

    def test_exploration_rebuilds_nothing_and_lookup_equals_the_built_profile(self, saved):
        graph, directory = saved
        with PivotE.load(directory) as loaded:
            api = PivotEApi(loaded)
            probe = sorted(graph.entities())[1]
            assert api.handle({"action": "search", "keywords": graph.label(probe)})["status"] == "ok"
            api.handle({"action": "start_session", "session_id": "s"})
            response = api.handle({"action": "select_entity", "session_id": "s", "entity": probe})
            features = response["recommendation"]["features"]
            entities = response["recommendation"]["entities"]
            if features:
                api.handle({"action": "pin_feature", "session_id": "s", "feature": features[0]["feature"]})
            target = entities[0]["entity"] if entities else probe
            assert api.handle({"action": "pivot", "session_id": "s", "entity": target})["status"] == "ok"
            loaded.explain(probe, target)
            loaded.matrix_for(loaded.recommend([probe]))
            assert loaded.stats().rebuilds == {
                "full_rebuilds": 0, "delta_rebuilds": 0, "delta_entities": 0,
            }
            assert loaded.stats().traversal.rebuilds == 0
            for entity_id in (probe, target):
                assert loaded.lookup(entity_id) == entity_profile(graph, entity_id)

    def test_recommendation_requests_decode_no_feature_row(self, saved, monkeypatch):
        """select → pin → pivot run on the decoded tables' arrays: the same
        answers as the saving system's, and not one holder or feature row
        turned into a frozenset (``explain`` and an extra pinned feature
        outside the ranked ones still decode theirs)."""
        graph, directory = saved

        def session(system: PivotE) -> list[dict]:
            api = PivotEApi(system)
            probe = sorted(graph.entities())[1]
            api.handle({"action": "start_session", "session_id": "s"})
            answers = [api.handle({"action": "select_entity", "session_id": "s", "entity": probe})]
            recommendation = answers[0]["recommendation"]
            if recommendation["features"]:
                feature = recommendation["features"][0]["feature"]
                answers.append(
                    api.handle({"action": "pin_feature", "session_id": "s", "feature": feature})
                )
            entities = recommendation["entities"]
            target = entities[0]["entity"] if entities else probe
            answers.append(api.handle({"action": "pivot", "session_id": "s", "entity": target}))
            assert all(answer["status"] == "ok" for answer in answers)
            return answers

        with PivotE(graph) as built, PivotE.load(directory) as loaded:
            expected = session(built)
            decoded: list[str] = []
            for name in ("features_of", "holders_of"):
                original = getattr(FeatureIndexSnapshot, name)
                monkeypatch.setattr(
                    FeatureIndexSnapshot, name,
                    lambda self, key, name=name, original=original:
                        decoded.append(name) or original(self, key),
                )
            assert session(loaded) == expected
            assert decoded == []
            assert loaded.stats().child("recommendation").stages.fallback_total == 0

    def test_save_load_save_is_byte_identical(self, saved, tmp_path):
        graph, directory = saved
        with PivotE.load(directory) as loaded:
            loaded.save(str(tmp_path / "again"))
        # The other two segments embed process-local uids.
        assert snap_bytes(str(tmp_path / "again"), "graph-triples") == snap_bytes(
            directory, "graph-triples"
        )

    def test_save_load_write_read_equals_fresh_build(self, saved):
        graph, directory = saved
        with PivotE.load(directory) as loaded, PivotE(graph.copy()) as fresh:
            answers = []
            for system in (loaded, fresh):
                anchors = sorted(system.graph.entities())[:3]
                system.graph.add_label("ex:written", 'written "entity" 𝄞')
                system.graph.add_type("ex:written", system.graph.dominant_type(anchors[0]) or "ex:T")
                for anchor in anchors:
                    system.graph.add("ex:written", sorted(system.graph.edge_predicates())[0], anchor)
                system.search_engine.add_entity("ex:written")
                recommendation = system.recommend(["ex:written", anchors[0]])
                answers.append((
                    [(hit.entity_id, hit.score) for hit in system.search("written entity")],
                    [(e.entity_id, e.score) for e in recommendation.entities],
                    [(f.feature, f.score) for f in recommendation.features],
                    maps(system.feature_index.snapshot()),
                    system.lookup("ex:written"),
                ))
            assert answers[0] == answers[1]
            assert loaded.graph.triples == fresh.graph.triples
