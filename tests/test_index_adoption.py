"""The adopted search index == the one built in RAM, and a bad CSR is refused.

``PivotE.load`` serves the ``search-index`` segment as it is stored: one
posting CSR per field (a term string table, offsets, one ordinal and one
frequency column, a length column) over one document-id table, as the
base of the index.  Here an adopted index is compared with an in-RAM
build structure by structure — CSRs, per-term postings and counts,
lengths — at load, after a copy-on-write write, and after a re-save and
reload; every check the restore makes of a checksummed CSR gets a
hand-built segment that fails exactly that check; and the lazy boundary
(a request reads only the terms it names) is pinned.
"""

from __future__ import annotations

import sys
import threading
import zlib

import numpy as np
import pytest

from index_oracle import assert_same_index
from repro.datasets import RandomKGConfig, build_random_kg, small_movie_kg
from repro.engine import PivotE
from repro.search import SearchEngine
from repro.storage import (
    SEARCH_INDEX_KEY,
    SegmentBuilder,
    SegmentView,
    SnapshotUnavailable,
    encode_index_snapshot,
    restore_fielded_index,
    system_store,
)
from repro.storage.codec import INDEX_KIND, place_strings

DATASETS = {
    "random": lambda: build_random_kg(RandomKGConfig(num_entities=160, seed=17)),
    "movies": small_movie_kg,
}


def segment_bytes(manifest: dict, builder: SegmentBuilder) -> bytes:
    encoded = SegmentBuilder.encode_manifest(manifest)
    buffer = bytearray(builder.total_size(encoded)[0])
    builder.write_into(buffer, encoded)
    return bytes(buffer)


def saved(index) -> bytes:
    """One index epoch as the bytes of a durable ``search-index`` segment."""
    return segment_bytes(*encode_index_snapshot(index))


def adopted(segment: bytes, fields):
    return restore_fielded_index(SegmentView(segment, verify=True), tuple(fields))


def written_since_base(index) -> int:
    return index.field_index(index.fields[0]).documents.num_written


@pytest.fixture(scope="module", params=sorted(DATASETS))
def built_engine(request):
    return SearchEngine.from_graph(DATASETS[request.param]())


def a_write(built) -> tuple[str, dict[str, list[str]]]:
    """A new document reusing stored terms in every field, plus one unseen term."""
    terms = {}
    for field in built.fields:
        known = built.field_index(field).base.terms[:3]
        terms[field] = known + known[:1] + [f"unseen{field}"]
    return "ex:zz-written", terms


# ---------------------------------------------------------------------- #
# Structural equivalence
# ---------------------------------------------------------------------- #
class TestAdoptedIndexStructure:
    def test_at_load(self, built_engine):
        built = built_engine.index
        index = adopted(saved(built), built.fields)
        assert written_since_base(index) == 0
        assert index.epoch == built.epoch
        assert_same_index(index, built)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "read-before"])
    @pytest.mark.parametrize("which", ["new", "existing"])
    def test_after_one_write(self, built_engine, warm, which):
        built = built_engine.index
        index = adopted(saved(built), built.fields)
        doc_id, terms = a_write(built)
        if which == "existing":
            doc_id = built.doc_ids[3]
        if warm:
            assert_same_index(index, built)
        written, built_written = (
            index.with_added_document(doc_id, terms),
            built.with_added_document(doc_id, terms),
        )
        assert written_since_base(written) == 1 and written_since_base(index) == 0
        for field in built.fields:  # the write shares the stored CSRs
            assert written.field_index(field).base is index.field_index(field).base
        assert_same_index(written, built_written)
        assert_same_index(index, built)  # the predecessor is untouched

    def test_after_a_resave_and_reload(self, built_engine):
        built = built_engine.index
        segment = saved(built)
        index = adopted(segment, built.fields)
        again = saved(index)
        # Only the uid differs: equal descriptors carry equal checksums, so
        # the CSRs were written back byte for byte.
        first, second = SegmentView(segment).manifest, SegmentView(again).manifest
        assert {**first, "uid": 0} == {**second, "uid": 0}
        assert_same_index(adopted(again, built.fields), built)

        doc_id, terms = a_write(built)
        written = index.with_added_document(doc_id, terms)
        rewritten = saved(written)
        assert written_since_base(written) == 1  # the save merged a copy, not the epoch
        assert_same_index(
            adopted(rewritten, built.fields), built.with_added_document(doc_id, terms)
        )


# ---------------------------------------------------------------------- #
# Validation of the adopted segment
# ---------------------------------------------------------------------- #
DOCS = ["a", "b", "c"]
VALID = {
    "doc_ids": DOCS,
    "num_documents": 3,
    "terms": ["x", "y"],
    "offsets": [0, 2, 3],  # x -> {a: 1, c: 2}; y -> {b: 3}
    "ordinals": [0, 2, 1],
    "frequencies": [1, 2, 3],
    "lengths": [1, 3, 2],
}


def hand_built(term_lengths=None, crcs=None, **changes) -> SegmentView:
    """A checksummed one-field index segment over three documents.

    ``term_lengths`` replaces the lengths column of the term string
    table, ``crcs`` the per-document CRC column.
    """
    spec = {**VALID, **changes}
    builder = SegmentBuilder()
    place = builder.place
    if crcs is None:
        crcs = [zlib.crc32(doc.encode()) for doc in spec["doc_ids"]]
    terms = place_strings(place, spec["terms"])
    if term_lengths is not None:
        terms["lengths"] = place(np.asarray(term_lengths))
    manifest = {
        "uid": 1,
        "epoch": 3,
        "kind": INDEX_KIND,
        "num_documents": spec["num_documents"],
        "fields": ["names"],
        "crcs": place(np.asarray(crcs, dtype=np.uint32)),
        "doc_ids": place_strings(place, spec["doc_ids"]),
        "lengths": {"names": place(np.asarray(spec["lengths"]))},
        "postings": {
            "names": {
                "terms": terms,
                "offsets": place(np.asarray(spec["offsets"])),
                "ordinals": place(np.asarray(spec["ordinals"])),
                "frequencies": place(np.asarray(spec["frequencies"])),
            }
        },
    }
    return SegmentView(segment_bytes(manifest, builder), verify=True)


def refused(view: SegmentView, match: str) -> None:
    with pytest.raises(SnapshotUnavailable, match=match):
        restore_fielded_index(view, ("names",))


class TestAdoptedSegmentValidation:
    def test_a_well_formed_segment_is_adopted(self):
        index = restore_fielded_index(hand_built(), ("names",))
        names = index.field_index("names")
        assert names.postings("x").ordinals.tolist() == [0, 2]
        assert names.postings("x").frequencies.tolist() == [1.0, 2.0]
        assert names.lengths().tolist() == [1.0, 3.0, 2.0]
        assert [names.document_length(doc) for doc in DOCS] == [1, 3, 2]

    def test_a_wrapped_ordinal_with_a_fractional_frequency_is_refused(self):
        """Once restored as ``{'c': 0}`` for ``x``: ``doc_ids[-1]`` and ``int(0.5)``."""
        refused(hand_built(ordinals=[-1, 2, 1], frequencies=[0.5, 2, 3]), "frequencies")
        refused(hand_built(ordinals=[-1, 2, 1]), "outside the documents")

    @pytest.mark.parametrize(
        "offsets", [[0, 3, 3], [0, 2, 4], [1, 2, 3]], ids=["empty-row", "overrun", "not-from-zero"]
    )
    def test_offsets_must_be_monotone_and_end_at_the_column_size(self, offsets):
        refused(hand_built(offsets=offsets), "offsets are not monotone")

    @pytest.mark.parametrize("ordinals", [[-1, 2, 1], [0, 3, 1]], ids=["negative", "past-the-end"])
    def test_ordinals_must_lie_inside_the_documents(self, ordinals):
        refused(hand_built(ordinals=ordinals), "outside the documents")

    @pytest.mark.parametrize("ordinals", [[2, 0, 1], [0, 0, 1]], ids=["descending", "repeated"])
    def test_ordinals_must_increase_within_a_term(self, ordinals):
        refused(hand_built(ordinals=ordinals), "do not increase within a term")

    def test_frequencies_must_be_integers(self):
        refused(hand_built(frequencies=[1, 0.5, 3]), "not a 1-D integer column")

    def test_frequencies_must_be_positive(self):
        refused(hand_built(frequencies=[1, 0, 3], lengths=[1, 3, 0]), "not positive")

    def test_document_ids_must_ascend(self):
        refused(hand_built(doc_ids=["a", "c", "b"]), "not strictly ascending")

    def test_document_ids_must_number_the_documents(self):
        refused(hand_built(num_documents=4), "3 document ids for 4 documents")

    def test_lengths_must_equal_the_postings_sums(self):
        refused(hand_built(lengths=[1, 3, 3]), "length column disagrees")

    def test_terms_must_ascend(self):
        refused(hand_built(terms=["y", "x"]), "terms are not strictly ascending")

    @pytest.mark.parametrize(
        "term_lengths",
        [[1.0, 1.0], [[1], [1]], [-1, 3], [3, -1]],
        ids=["float", "two-dimensional", "negative", "past-the-text"],
    )
    def test_string_table_lengths_must_be_integers_inside_the_text(self, term_lengths):
        refused(hand_built(term_lengths=term_lengths), "string table 'names' is malformed")

    def test_crcs_must_be_the_document_ids_crcs(self):
        crcs = [zlib.crc32(doc.encode()) for doc in DOCS]
        refused(hand_built(crcs=crcs[::-1]), "crc column disagrees with the document ids")

    def test_the_old_per_term_layout_is_refused(self):
        """Two descriptors per term, the ids inline: what earlier builds wrote."""
        builder = SegmentBuilder()
        place = builder.place
        manifest = {
            "uid": 1, "epoch": 3, "num_documents": 3, "fields": ["names"],
            "crcs": place(np.zeros(3, dtype=np.uint32)),
            "doc_ids": DOCS,
            "lengths": {"names": place(np.array([1.0, 3.0, 2.0]))},
            "postings": {"names": {
                "x": [place(np.array([0, 2])), place(np.array([1.0, 2.0]))],
                "y": [place(np.array([1])), place(np.array([3.0]))],
            }},
        }
        refused(SegmentView(segment_bytes(manifest, builder), verify=True), "of kind ''")


def test_a_refused_index_segment_degrades_to_a_counted_rebuild(tmp_path, monkeypatch):
    graph = DATASETS["random"]()
    queries = ["entity 7", "entity 12 entity 40"]
    with PivotE(graph) as system:
        expected = [[(hit.entity_id, hit.score) for hit in system.search(q)] for q in queries]
        system.save(str(tmp_path))
        index = system.search_engine.index
        manifest, builder = encode_index_snapshot(index)
    # Re-placed array by array, so every checksum holds — but one posting
    # of "names" now occurs zero times.
    view = SegmentView(segment_bytes(manifest, builder), verify=True)
    frequencies = manifest["postings"]["names"]["frequencies"]
    rebuilt = SegmentBuilder()

    def copy(desc):
        array = np.array(view.array(desc))
        if desc is frequencies:
            array[0] = 0
        return rebuilt.place(array)

    republished = _replace(manifest, copy)
    store = system_store(str(tmp_path))
    store.publish(
        SEARCH_INDEX_KEY, republished, rebuilt,
        extra={"graph_epoch": store.entry(SEARCH_INDEX_KEY)["graph_epoch"]},
    )
    builds = []
    build = SearchEngine.build
    monkeypatch.setattr(SearchEngine, "build", lambda engine: builds.append(engine) or build(engine))
    with PivotE.load(str(tmp_path)) as loaded:
        assert loaded.stats().storage.failures == 1
        assert builds == [loaded.search_engine]  # rebuilt from the graph, not adopted
        assert [
            [(hit.entity_id, hit.score) for hit in loaded.search(q)] for q in queries
        ] == expected


def _replace(node, place):
    """``node`` with every array descriptor replaced by ``place(descriptor)``."""
    if isinstance(node, list) and len(node) == 4 and isinstance(node[0], int):
        return place(node)
    if isinstance(node, dict):
        return {key: _replace(value, place) for key, value in node.items()}
    return node


# ---------------------------------------------------------------------- #
# The lazy boundary
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def saved_system(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("adopted-index"))
    with PivotE(DATASETS["random"]()) as system:
        system.save(directory)
    return directory


class TestLazyBoundary:
    def test_load_and_a_search_read_only_the_named_terms(self, saved_system):
        """A search reads the stored rows of the terms it names: statistics,
        candidates, columns and the exact epilogue alike."""
        with PivotE.load(saved_system) as loaded:
            assert loaded.search("entity 42")
            assert loaded.search("names:entity 42 unheardof")
            index = loaded.search_engine.index
            for field in index.fields:
                named = index.field_index(field)
                assert set(named._columnar) <= {"entity", "42"}
                assert set(named.base._rows) <= {"entity", "42"}

    def test_reading_stats_reads_no_term(self, saved_system):
        with PivotE.load(saved_system) as loaded:
            for _ in range(3):
                loaded.stats()
                loaded.search_engine.stats()
            index = loaded.search_engine.index
            for field in index.fields:
                assert not index.field_index(field)._columnar
                assert not index.field_index(field).base._rows

    def test_concurrent_first_reads_agree(self, built_engine):
        built = built_engine.index
        segment, reference = saved(built), built.field_index("names")
        terms = reference.base.terms
        failures: list[BaseException] = []

        def reader(names, start: threading.Barrier) -> None:
            try:
                start.wait(timeout=60)
                for term in terms:
                    got, want = names.postings(term), reference.postings(term)
                    assert got.ordinals.tolist() == want.ordinals.tolist()
                    assert got.frequencies.tolist() == want.frequencies.tolist()
                    assert names.term_counts(term) == reference.term_counts(term)
            except BaseException as error:  # noqa: BLE001 - reported by the main thread
                failures.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):  # a fresh adopted index per round, nothing read yet
                index = adopted(segment, built.fields)
                start = threading.Barrier(8)
                threads = [
                    threading.Thread(target=reader, args=(index.field_index("names"), start))
                    for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads) and not failures
                assert len(index.field_index("names")._columnar) == len(terms)
        finally:
            sys.setswitchinterval(previous)
