"""Sort-built feature tables and topology == the loop-built oracle.

``GraphTopology.from_log`` sorts the one edge CSR of an epoch out of a
prefix of the graph's edge-column log (``repro.kg.columns``), and
``ColumnarFeatureTables.from_topology`` adds the epoch's type tables.  The per-entity / per-feature loop builders they
replaced live on in ``columnar_oracle`` and read only the graph's and the
snapshot's dictionaries, so every comparison here is between two
independent derivations: array for array (dtype, shape and bytes), key
for key.  Covered: hypothesis graphs with interleaved writes (untyped,
alias-only and literal-only entities, self-loops, parallel predicates
between one pair, equal-population type ties, types that are nobody's
dominant type, the empty graph); snapshots pinned *before* later writes
(the prefix cut); the log after incremental catch-up against a log
rebuilt from ``graph.triples``; the three datasets; and cold start —
``load`` installs the decoded tables, and ``save → load → write →
recommend`` equals a freshly built system.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from columnar_oracle import (
    TABLE_ARRAYS,
    assert_tables_match,
    assert_topology_matches,
    feature_tables_oracle,
    sorted_tables,
    topology_oracle,
)
from repro.datasets import RandomKGConfig, build_random_kg, small_academic_kg, small_movie_kg
from repro.engine import PivotE
from repro.features import SemanticFeatureIndex
from repro.features.columnar import ColumnarFeatureTables, columnar_tables
from repro.kg import GraphTopology, KnowledgeGraph, Literal, Triple, graph_topology
from repro.kg.columns import EdgeColumnLog, sort_rows
from repro.kg.namespaces import DCT_SUBJECT, RDF_TYPE, RDFS_LABEL, REDIRECT
from repro.storage import SegmentView, SnapshotUnavailable
from repro.storage.codec import SegmentBuilder, encode_feature_tables
from repro.storage.kgstore import restore_feature_snapshot

# ``ex:a0``, ``ex:o0`` and ``ex:S0`` sort before every other entity,
# predicate and type, so a burst that first names one shifts every ordinal.
ENTITIES = [f"ex:e{index}" for index in range(7)] + ["ex:a0"]
PREDICATES = ["ex:p0", "ex:p1", "ex:p2", "ex:o0"]
TYPES = ["ex:T0", "ex:T1", "ex:T2", "ex:T3", "ex:S0"]

entity = st.sampled_from(ENTITIES)
triple = st.one_of(
    st.builds(Triple, entity, st.sampled_from(PREDICATES), entity),  # incl. self-loops
    st.builds(Triple, entity, st.just(RDF_TYPE), st.sampled_from(TYPES)),
    st.builds(Triple, entity, st.just(REDIRECT), st.sampled_from(["ex:alias0", "ex:alias1"])),
    st.builds(Triple, entity, st.just(DCT_SUBJECT), st.sampled_from(["exc:c0", "exc:c1"])),
    st.builds(Triple, st.sampled_from(ENTITIES + ["ex:lit0"]), st.just(RDFS_LABEL),
              st.builds(Literal, st.sampled_from(["a", "b"]))),
)
#: Bursts of writes; the structures are rebuilt and compared after each.
write_bursts = st.lists(st.lists(triple, max_size=12), max_size=5)


def assert_epoch_matches(index: SemanticFeatureIndex, graph: KnowledgeGraph) -> None:
    """The sorted builds and the memoised structures — derived from the
    previous epoch's whenever there was one — all equal the oracle."""
    snapshot = index.snapshot()
    tables_oracle, graph_oracle = feature_tables_oracle(snapshot), topology_oracle(graph)
    assert_tables_match(sorted_tables(snapshot), tables_oracle)
    assert_tables_match(columnar_tables(snapshot), tables_oracle)
    assert_topology_matches(GraphTopology.from_graph(graph), graph_oracle)
    assert_topology_matches(graph_topology(graph), graph_oracle)


class TestHypothesisGraphs:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(write_bursts, st.sampled_from([GraphTopology.max_delta_fraction, 1.0]))
    def test_interleaved_writes_match_oracle(self, bursts, fraction):
        """At 1.0 every burst's CSR is derived from the last one's."""
        with patch.object(GraphTopology, "max_delta_fraction", fraction):
            graph = KnowledgeGraph("hyp")
            index = SemanticFeatureIndex.build(graph)
            assert_epoch_matches(index, graph)  # the empty graph
            for burst in bursts:
                graph.add_all(burst)
                assert_epoch_matches(index, graph)

    @settings(max_examples=75, deadline=None, derandomize=True)
    @given(write_bursts)
    def test_pinned_snapshots_build_their_own_epoch(self, bursts):
        """Tables built *after* later writes still describe the pinned epoch."""
        graph = KnowledgeGraph("hyp")
        index = SemanticFeatureIndex.build(graph)
        pinned = [index.snapshot()]
        for burst in bursts:
            graph.add_all(burst)
            pinned.append(index.snapshot())
        for snapshot in reversed(pinned):  # newest first: the log is ahead of all others
            assert_tables_match(columnar_tables(snapshot), feature_tables_oracle(snapshot))

    @settings(max_examples=75, deadline=None, derandomize=True)
    @given(write_bursts)
    def test_caught_up_log_equals_log_rebuilt_from_triples(self, bursts):
        """Each burst's epoch is derived from the last one; older cuts are sorted."""
        graph = KnowledgeGraph("hyp")
        cuts = [0]
        graph.columns.epoch(0)
        for burst in bursts:
            graph.add_all(burst)
            derived = graph.columns.epoch(len(graph))  # derived from the last burst's epoch
            assert_epoch_columns_equal(derived, rebuilt_log(graph).epoch(len(graph)))
            cuts.append(len(graph))
        rebuilt = rebuilt_log(graph)
        for cut in cuts:
            assert_epoch_columns_equal(graph.columns.epoch(cut), rebuilt.epoch(cut))


def rebuilt_log(graph: KnowledgeGraph) -> EdgeColumnLog:
    """The column log of a fresh graph that took ``graph``'s triples in one go."""
    fresh = KnowledgeGraph("fresh")
    fresh.add_all(graph.triples)
    return fresh.columns


def assert_epoch_columns_equal(live, fresh) -> None:
    for name in ("triples", "entity_ids", "ordinal_of", "predicates", "type_ids", "num_edges"):
        assert getattr(live, name) == getattr(fresh, name), name
    for name in ("typed_entities", "typed_types", "entity_rank", "predicate_rank", "type_rank"):
        actual, wanted = getattr(live, name), getattr(fresh, name)
        assert actual.dtype == wanted.dtype and actual.tobytes() == wanted.tobytes(), name
    for name, actual, wanted in zip(("subjects", "predicates", "objects"),
                                    live.edge_rows(0), fresh.edge_rows(0)):
        assert actual.dtype == wanted.dtype and actual.tobytes() == wanted.tobytes(), name


class TestHandPickedShapes:
    def build(self, triples) -> tuple[KnowledgeGraph, SemanticFeatureIndex]:
        graph = KnowledgeGraph("shapes")
        graph.add_all(Triple(*parts) for parts in triples)
        return graph, SemanticFeatureIndex.build(graph)

    def test_type_ties_and_never_dominant_types(self):
        # T0 and T1 tie on population (the name breaks it); T2 covers every
        # entity so it is nobody's dominant type, and it stays in the
        # tables' type universe, as in the graph's.
        graph, index = self.build(
            [("ex:a", RDF_TYPE, "ex:T0"), ("ex:a", RDF_TYPE, "ex:T1"),
             ("ex:b", RDF_TYPE, "ex:T1"), ("ex:b", RDF_TYPE, "ex:T0"),
             ("ex:c", RDF_TYPE, "ex:T1"), ("ex:d", RDF_TYPE, "ex:T0"),
             *[(name, RDF_TYPE, "ex:T2") for name in ("ex:a", "ex:b", "ex:c", "ex:d")],
             ("ex:a", "ex:p", "ex:untyped")]
        )
        assert_epoch_matches(index, graph)
        tables = columnar_tables(index.snapshot())
        assert tables.num_types == 3 and tables.type_ids == sorted(graph.types())
        assert index.snapshot().dominant_type("ex:a") == "ex:T0" == graph.dominant_type("ex:b")

    def test_a_write_that_moves_dominant_types_is_derived(self, monkeypatch):
        """Typing two more entities ``ex:T0`` makes it more populated than
        ``ex:T1``, moving the dominant type of every entity holding both."""
        graph, index = self.build(
            [("ex:a", RDF_TYPE, "ex:T0"), ("ex:a", RDF_TYPE, "ex:T1"),
             ("ex:b", RDF_TYPE, "ex:T0"), ("ex:b", RDF_TYPE, "ex:T1"),
             ("ex:c", RDF_TYPE, "ex:T1"), ("ex:c", "ex:p", "ex:a"), ("ex:b", "ex:p", "ex:c")]
        )
        assert_epoch_matches(index, graph)
        before = columnar_tables(index.snapshot())
        # Three triples on seven: a delta, not a full sort.
        monkeypatch.setattr(GraphTopology, "max_delta_fraction", 1.0)
        graph.add_all(
            [Triple("ex:d", RDF_TYPE, "ex:T0"), Triple("ex:0", RDF_TYPE, "ex:T0"),
             Triple("ex:0", "ex:o", "ex:a")]
        )
        handed, sorted_rows = [], []
        from_log = GraphTopology.from_log.__func__
        monkeypatch.setattr(GraphTopology, "from_log", classmethod(
            lambda cls, log, triples, epoch, previous=None:
                handed.append(previous) or from_log(cls, log, triples, epoch, previous)
        ))
        for target in ("repro.kg.columns.sort_rows", "repro.kg.topology.sort_rows"):
            monkeypatch.setattr(target, lambda sizes, *columns: (
                sorted_rows.append(columns[0].size) or sort_rows(sizes, *columns)
            ))
        whole_log_passes = []
        type_tables = ColumnarFeatureTables.type_tables
        monkeypatch.setattr(ColumnarFeatureTables, "type_tables", staticmethod(
            lambda columns: whole_log_passes.append(columns) or type_tables(columns)
        ))
        snapshot = index.snapshot()
        monkeypatch.undo()
        # Derived from the last epoch's topology and tables: what was sorted
        # is the new edge's two holder rows and the two new memberships,
        # never the whole CSR (six holder rows) or every membership (seven),
        # and the type tables were not counted over the whole log.
        assert len(handed) == 1 and handed[0] is before.topology
        assert sorted_rows and max(sorted_rows) <= 2 and not whole_log_passes
        assert_epoch_matches(index, graph)
        tables = columnar_tables(snapshot)
        assert tables.topology is graph_topology(graph)
        assert tables.topology._columns.triples == len(graph)
        a = tables.ordinal_of["ex:a"]
        assert before.dominant_ords[before.ordinal_of["ex:a"]] != tables.dominant_ords[a]

    def test_self_loop_and_parallel_predicates(self):
        graph, index = self.build(
            [("ex:a", "ex:p", "ex:a"), ("ex:a", "ex:p", "ex:b"), ("ex:a", "ex:q", "ex:b"),
             ("ex:b", "ex:p", "ex:a")]
        )
        assert_epoch_matches(index, graph)

    def test_unknown_feature_keys_have_no_ordinal(self):
        graph, index = self.build([("ex:a", "ex:p", "ex:b")])
        tables = columnar_tables(index.snapshot())
        keys = [("ex:b", "ex:p", "object_of"), ("ex:nobody", "ex:p", "object_of"),
                ("ex:b", "ex:nope", "object_of"), ("ex:b", "ex:p", "sideways"),
                ("ex:a", "ex:p", "subject_of"), ("ex:a", "ex:p", "object_of")]
        assert tables.feature_ordinals(keys).tolist() == [1, -1, -1, -1, 0, -1]

    def test_sort_rows_refuses_radices_that_overflow_int64(self):
        column = np.zeros(1, dtype=np.int64)
        with pytest.raises(OverflowError):
            sort_rows((2**40, 2**40), column, column)


@pytest.mark.parametrize(
    "graph",
    [small_movie_kg(), small_academic_kg(), build_random_kg(RandomKGConfig(num_entities=400, seed=5))],
    ids=["movies", "academic", "random"],
)
def test_datasets_match_oracle_before_and_after_a_write(graph):
    index = SemanticFeatureIndex.build(graph)
    assert_epoch_matches(index, graph)
    anchor = sorted(graph.entities())[0]
    graph.add_label("ex:written", "written entity")
    graph.add_type("ex:written", sorted(graph.types())[0])
    graph.add("ex:written", sorted(graph.edge_predicates())[0], anchor)
    assert_epoch_matches(index, graph)


# ---------------------------------------------------------------------- #
# Cold start
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    graph = build_random_kg(RandomKGConfig(num_entities=160, seed=17))
    directory = str(tmp_path_factory.mktemp("cold-start") / "system")
    system = PivotE(graph)
    try:
        system.save(directory)
    finally:
        system.close()
    return graph, directory


def _write(graph: KnowledgeGraph) -> list[str]:
    entities = sorted(graph.entities())
    graph.add_label("ex:written", "written entity")
    graph.add_type("ex:written", graph.dominant_type(entities[3]))
    for target in entities[:4]:
        graph.add("ex:written", sorted(graph.edge_predicates())[0], target)
    return ["ex:written", entities[0]]


class TestColdStart:
    def test_load_installs_the_decoded_tables(self, saved):
        graph, directory = saved
        loaded = PivotE.load(directory)
        try:
            snapshot = loaded.feature_index.snapshot()
            assert snapshot._columnar is not None  # no rebuild on the first recommendation
            assert columnar_tables(snapshot) is snapshot._columnar
            assert_tables_match(snapshot._columnar, feature_tables_oracle(snapshot))
            assert loaded.stats().as_dict()["storage"]["failures"] == 0
        finally:
            loaded.close()

    def test_save_load_write_recommend_equals_fresh_build(self, saved):
        graph, directory = saved
        loaded, fresh = PivotE.load(directory), PivotE(graph.copy())
        try:
            for system in (loaded, fresh):
                seeds = _write(system.graph)
                system.search_engine.add_entity("ex:written")
            got = loaded.recommendation_engine.recommend_for_seeds(seeds)
            want = fresh.recommendation_engine.recommend_for_seeds(seeds)
            assert [(e.entity_id, e.score) for e in got.entities] == [
                (e.entity_id, e.score) for e in want.entities
            ]
            assert [(f.feature, f.score) for f in got.features] == [
                (f.feature, f.score) for f in want.features
            ]
            assert_epoch_matches(loaded.feature_index, loaded.graph)
        finally:
            loaded.close()
            fresh.close()

    def test_the_first_refresh_after_a_load_sorts_only_the_rows_written_since(
        self, saved, monkeypatch
    ):
        """The restored CSR keeps the adopted log's epoch, so the first
        write derives the next epoch's from it: every sort it makes is of
        the rows the write added, never of the whole log."""
        _, directory = saved
        with PivotE.load(directory) as loaded:
            graph = loaded.graph
            restored = loaded.feature_index.snapshot().tables.topology
            assert restored._columns is not None and restored._columns.triples == len(graph)
            before = len(graph)
            seeds = _write(graph)
            monkeypatch.setattr(GraphTopology, "max_delta_fraction", 1.0)
            sorted_rows: list[int] = []
            for target in ("repro.kg.columns.sort_rows", "repro.kg.topology.sort_rows"):
                monkeypatch.setattr(target, lambda sizes, *columns: (
                    sorted_rows.append(columns[0].size) or sort_rows(sizes, *columns)
                ))
            snapshot = loaded.feature_index.snapshot()
            monkeypatch.undo()
            written = len(graph) - before
            assert sorted_rows and max(sorted_rows) <= 2 * written  # two holder rows per edge
            assert loaded.feature_index.rebuild_info()["delta_rebuilds"] == 1
            assert snapshot.tables.topology is graph_topology(graph)
            assert_epoch_matches(loaded.feature_index, graph)
            loaded.search_engine.add_entity(seeds[0])
            assert loaded.recommend(seeds).entities

    @pytest.mark.parametrize("array", ["holder_offsets", "dominant_ords", "member_offsets"])
    def test_misshapen_table_segment_is_refused(self, saved, array):
        graph, _ = saved
        index = SemanticFeatureIndex.build(graph)
        tables = columnar_tables(index.snapshot())
        arrays = {name: getattr(tables, name) for name in TABLE_ARRAYS}
        arrays[array] = arrays[array][:-1]
        broken = SimpleNamespace(
            num_entities=tables.num_entities, feature_codes=tables.feature_codes,
            predicates=tables.predicates, entity_ids=tables.entity_ids,
            type_ids=tables.type_ids, **arrays,
        )
        manifest, builder = encode_feature_tables(
            SimpleNamespace(uid=index.uid, epoch=tables.epoch), broken
        )
        encoded = SegmentBuilder.encode_manifest(manifest)
        buffer = bytearray(builder.total_size(encoded)[0])
        builder.write_into(buffer, encoded)
        with pytest.raises(SnapshotUnavailable):
            restore_feature_snapshot(graph, SegmentView(buffer, verify=True))
