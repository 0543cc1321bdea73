"""Per-epoch structures derived from the previous epoch's: isolation and bounds.

A write derives the successor's search index, epoch columns, feature
tables and topology from the predecessor's instead of rebuilding them.
``test_columnar_build_equivalence``, ``test_index_writes`` and
``test_serial_search_matrix`` hold the derived structures equal to the
full builds; this module holds the two promises equality does not cover:

* **isolation** — a reader pinned at epoch n keeps byte-identical arrays
  while the writer derives n + 1 (nothing of a predecessor is written);
* **bounds** — a search index epoch shares its base CSRs with its
  predecessor and carries forward only the documents written since,
  which a merge bounds; its per-term memo starts empty, and no epoch
  keeps its predecessor alive.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.datasets import RandomKGConfig, build_random_kg
from repro.features import SemanticFeatureIndex
from repro.features.columnar import columnar_tables
from repro.index import FieldedIndex, columnar_view
from repro.index.fielded_index import MERGE_FRACTION
from repro.kg import GraphTopology, graph_topology
from repro.search import SearchEngine
from repro.storage import SegmentView
from repro.storage.codec import SegmentBuilder, encode_index_snapshot
from repro.storage.kgstore import restore_fielded_index
from repro.utils import OrdinalMap


def _bytes(arrays) -> dict[str, bytes]:
    return {name: array.tobytes() for name, array in arrays.items()}


def _view_arrays(view: FieldedIndex, fields, terms) -> dict[str, bytes]:
    arrays = {f"lengths:{field}": view.field_lengths(field) for field in fields}
    for field in fields:
        for term in terms:
            postings = view.postings(field, term)
            if postings is not None:
                arrays[f"{field}:{term}:ordinals"] = postings.ordinals
                arrays[f"{field}:{term}:frequencies"] = postings.frequencies
    return _bytes(arrays)


def _write(graph, number: int) -> str:
    """A new entity that sorts first, with a label, a type and two edges."""
    entity = f"ex:0written{number}"
    anchors = sorted(graph.entities())
    graph.add_label(entity, f"written{number} film")
    graph.add_type(entity, sorted(graph.types())[number % 3])
    predicate = sorted(graph.edge_predicates())[0]
    graph.add(entity, predicate, anchors[number])
    graph.add(anchors[-1 - number], predicate, entity)
    return entity


@pytest.fixture
def graph():
    return build_random_kg(RandomKGConfig(num_entities=150, seed=41))


class TestPinnedReadersKeepTheirEpoch:
    def test_search_view(self, graph):
        engine = SearchEngine.from_graph(graph)
        terms = ["film", "written0", "entity"]
        engine.search("film entity")
        pinned = columnar_view(engine.index)
        fields = engine.index.fields
        doc_ids = list(pinned.doc_ids)
        before = _view_arrays(pinned, fields, terms)
        for number in range(3):
            engine.add_entity(_write(graph, number))
            engine.search("written0 film entity")  # the successor remaps the memo
        assert engine.index is not pinned
        assert pinned.doc_ids == doc_ids
        assert _view_arrays(pinned, fields, terms) == before
        assert pinned.ordinal_of.array(doc_ids).tolist() == list(range(len(doc_ids)))
        assert "ex:0written0" not in pinned.ordinal_of

    def test_feature_tables_and_topology(self, graph, monkeypatch):
        monkeypatch.setattr(GraphTopology, "max_delta_fraction", 1.0)  # every write derives
        index = SemanticFeatureIndex.build(graph)
        snapshot = index.snapshot()
        tables, topology = columnar_tables(snapshot), graph_topology(graph)
        assert tables.topology is topology
        table_arrays = {
            name: getattr(tables, name)
            for name in ("feature_codes", "holder_offsets", "holder_ordinals", "dominant_ords",
                         "type_populations", "member_offsets", "member_type_ords")
        }
        topology_arrays = {
            name: getattr(topology, name) for name in ("anchor_features", "anchor_offsets")
        }
        columns = graph.columns.epoch(snapshot.triples)

        def column_arrays():  # the edge rows are coded per call, so re-read them
            arrays = {
                name: getattr(columns, name)
                for name in ("typed_entities", "typed_types", "entity_rank", "predicate_rank",
                             "type_rank")
            }
            arrays.update(zip(("subjects", "predicates", "objects"), columns.edge_rows(0)))
            return _bytes(arrays)

        before = [_bytes(table_arrays), _bytes(topology_arrays), column_arrays()]
        entity_ids = list(tables.entity_ids)
        for number in range(3):
            _write(graph, number)
            derived = columnar_tables(index.snapshot())
            assert derived is not tables and graph_topology(graph) is not topology
        assert index.rebuild_info()["delta_rebuilds"] == 3
        assert derived.entity_ids[0] == "ex:0written0"
        assert [_bytes(table_arrays), _bytes(topology_arrays), column_arrays()] == before
        assert tables.entity_ids == entity_ids == topology.entity_ids
        assert tables.ordinal_of.get("ex:0written0") is None
        assert tables.entity_ordinals(entity_ids[:5]).tolist() == list(range(5))


class TestCarriedStateIsBounded:
    def test_an_epoch_shares_the_base_and_carries_only_the_written_documents(self, graph):
        engine = SearchEngine.from_graph(graph)
        fields = engine.index.fields
        merges = 0
        for cycle in range(50):
            index = engine.index
            engine.search(f"distinct{cycle} film")  # two terms the epoch's readers ask for
            assert all(len(index.field_index(f)._columnar) <= 2 for f in fields)
            entity = f"ex:cycle{cycle}"
            graph.add_label(entity, f"distinct{cycle + 1} film")
            engine.add_entity(entity)
            successor = engine.index
            for field in fields:
                before, after = index.field_index(field), successor.field_index(field)
                assert not after._columnar  # nothing is built before a query asks
                documents = after.documents
                assert documents.num_written <= MERGE_FRACTION * len(documents.base.doc_ids)
                assert len(after._written) == documents.num_written
                if after.base is not before.base:
                    assert documents.num_written == 0  # the write merged the delta
                    merges += field == fields[0]
        assert merges == 2  # 150 documents: after 19 writes, then 22 more

    def test_no_view_keeps_its_predecessor_alive(self, graph):
        engine = SearchEngine.from_graph(graph)
        engine.search("film entity")
        gc.collect()
        gc.disable()
        try:
            dead = weakref.ref(columnar_view(engine.index))
            engine.add_entity(_write(graph, 0))
            engine.search("written0 film")
            assert dead() is None
        finally:
            gc.enable()


class TestDerivationSources:
    def test_an_adopted_index_takes_writes_like_a_built_one(self, graph):
        """An index over stored CSRs (a cold start) writes like a built one."""
        built = SearchEngine.from_graph(graph)
        manifest, builder = encode_index_snapshot(built.index)
        encoded = SegmentBuilder.encode_manifest(manifest)
        buffer = bytearray(builder.total_size(encoded)[0])
        builder.write_into(buffer, encoded)
        engine = SearchEngine.restore(
            graph, restore_fielded_index(SegmentView(buffer, verify=True), built.config.fields)
        )
        hits = engine.search("film entity")
        assert hits == built.search("film entity")
        stored = engine.index.field_index("names").base.documents
        entity = _write(graph, 0)
        engine.add_entity(entity)
        built.add_entity(entity)
        # The epoch borrowed the stored ids' dictionary and never wrote it.
        assert stored.ordinal_of() == {doc_id: n for n, doc_id in enumerate(stored.doc_ids)}
        assert engine.index.field_index("names").base.documents is stored
        assert engine.search("written0 film entity") == built.search("written0 film entity")
        derived, rebuilt = engine.index, built.index
        assert derived.doc_ids == rebuilt.doc_ids
        for field in engine.index.fields:
            assert derived.field_lengths(field).tobytes() == rebuilt.field_lengths(field).tobytes()
            for term in ("film", "entity", "written0"):
                got, want = derived.postings(field, term), rebuilt.postings(field, term)
                assert (got is None) == (want is None)
                if got is not None:
                    assert np.array_equal(got.ordinals, want.ordinals)
                    assert np.array_equal(got.frequencies, want.frequencies)

    def test_a_topology_without_its_log_epoch_falls_back_to_the_full_sort(self, graph):
        """A CSR with no log epoch behind it has nothing to derive from."""
        topology = GraphTopology.from_graph(graph)
        arrays = ("feature_codes", "holder_offsets", "holder_ordinals")
        decoded = GraphTopology(
            topology.epoch, topology.entity_ids, topology.predicates,
            *(getattr(topology, name) for name in arrays),
        )
        assert decoded._columns is None
        _write(graph, 0)
        fresh, again = GraphTopology.from_graph(graph), GraphTopology.from_graph(graph, decoded)
        assert _bytes({name: getattr(again, name) for name in arrays}) == _bytes(
            {name: getattr(fresh, name) for name in arrays}
        )


class TestOrdinalMapSiblings:
    """Successors derived from one map, in any order or at once, share its
    code registry without sharing a code, and never change its answers; a
    registry the map borrows is never written."""

    def test_siblings_derived_concurrently(self):
        base = OrdinalMap([f"id{n:05d}" for n in range(0, 400, 2)])
        workers, per_worker = 8, 150
        keys = [[f"id{n:05d}w{worker}" for n in range(per_worker)] for worker in range(workers)]
        derived: list[tuple[str, OrdinalMap]] = []
        barrier = threading.Barrier(workers)

        def derive(own: list[str]) -> None:
            barrier.wait(timeout=10.0)
            for key in own:
                derived.append((key, base.with_inserted(key)[0]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=derive, args=(own,)) for own in keys]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(derived) == workers * per_worker
        codes = base._codes
        assert len({codes[key] for key, _ in derived}) == len(derived)  # no code handed out twice
        others = [own[0] for own in keys]
        for key, successor in derived[::37]:
            ids = sorted([*base.ids, key])
            assert successor.ids == ids
            assert successor.array(ids).tolist() == list(range(len(ids)))
            assert dict(successor) == {value: ordinal for ordinal, value in enumerate(ids)}
            assert successor.array([o for o in others if o != key]).tolist() == [-1] * (
                len(others) - (key in others)
            )
        assert base.array(base.ids).tolist() == list(range(len(base.ids)))
        assert base.array(others).tolist() == [-1] * len(others)
        assert base.with_inserted(base.ids[5]) == (base, 5)  # a held id changes nothing

    def test_a_borrowed_registry_is_copied_not_written(self):
        ids = [f"id{n:03d}" for n in range(0, 20, 2)]
        registry = {key: code for code, key in enumerate(ids)}
        borrowed = OrdinalMap(ids, registry)
        first, position = borrowed.with_inserted("id005")
        second, _ = first.with_inserted("id011")
        assert registry == {key: code for code, key in enumerate(ids)}
        assert borrowed.get("id005") is None and first.get("id011") is None
        assert position == 3 and dict(second) == {
            key: ordinal for ordinal, key in enumerate(sorted([*ids, "id005", "id011"]))
        }
        assert first._codes is second._codes  # successors share the copy

    def test_the_column_log_registry_is_never_written_by_a_map(self, graph):
        columns = graph.columns.epoch(len(graph))
        registry = graph.columns.entities.codes()
        before = dict(registry)
        derived, position = columns.ordinal_of.with_inserted("ex:0written0")
        assert registry == before and derived["ex:0written0"] == position
        _write(graph, 0)  # the log then codes the same id itself
        later = graph.columns.epoch(len(graph))
        assert later.ordinal_of["ex:0written0"] == later.entity_ids.index("ex:0written0")
        assert dict(later.ordinal_of) == {key: n for n, key in enumerate(later.entity_ids)}
