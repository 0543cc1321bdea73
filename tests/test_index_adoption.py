"""The adopted search index == the one built in RAM, and a bad CSR is refused.

``PivotE.load`` serves the ``search-index`` segment as it is stored: one
posting CSR per field (a term string table, offsets, one ordinal and one
frequency column, a length column) over one document-id table.  Here an
adopted index is compared with an in-RAM build structure by structure —
vocabularies, postings, lengths, statistics, columnar arrays — at
load, after a copy-on-write write, and after a re-save and
reload; every check the restore makes of a checksummed CSR gets a
hand-built segment that fails exactly that check; and the lazy boundary
(how many posting lists a request decodes) is pinned.
"""

from __future__ import annotations

import logging
import sys
import threading
import zlib

import numpy as np
import pytest

from repro.datasets import RandomKGConfig, build_random_kg, small_movie_kg
from repro.engine import PivotE
from repro.index import columnar_view
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
    return segment_bytes(*encode_index_snapshot(index, columnar_view(index)))


def adopted(segment: bytes, fields):
    return restore_fielded_index(SegmentView(segment, verify=True), tuple(fields))


def assert_same_arrays(left: np.ndarray, right: np.ndarray) -> None:
    assert left.dtype == right.dtype and np.array_equal(left, right)


def assert_same_index(adopted_index, built) -> None:
    """Statistics and columnar arrays first (read off the CSR), then every list."""
    assert adopted_index.fields == built.fields
    assert adopted_index.documents() == built.documents()
    assert adopted_index.statistics() == built.statistics()
    got, want = columnar_view(adopted_index), columnar_view(built)
    assert got.doc_ids == want.doc_ids
    for field in built.fields:
        assert_same_arrays(got.field_lengths(field), want.field_lengths(field))
        for term in sorted(built.field_index(field).vocabulary()) + ["no-such-term"]:
            left, right = got.postings(field, term), want.postings(field, term)
            assert (left is None) == (right is None), (field, term)
            if right is not None:
                for name in ColumnarPostingsFields:
                    assert_same_arrays(getattr(left, name), getattr(right, name))
    for field in built.fields:
        mine, theirs = adopted_index.field_index(field), built.field_index(field)
        assert mine.vocabulary() == theirs.vocabulary()
        assert len(mine) == len(theirs)
        assert mine.document_lengths() == theirs.document_lengths()
        for doc_id in sorted(built.documents())[:20] + ["ex:nobody"]:
            assert mine.document_length(doc_id) == theirs.document_length(doc_id)
        for term in theirs.vocabulary():
            left, right = mine.get_postings(term), theirs.get_postings(term)
            assert left.doc_ids() == right.doc_ids(), (field, term)
            assert left.frequencies() == right.frequencies(), (field, term)
        assert mine.get_postings("no-such-term") is None


ColumnarPostingsFields = ("ordinals", "frequencies")


@pytest.fixture(scope="module", params=sorted(DATASETS))
def built_engine(request):
    return SearchEngine.from_graph(DATASETS[request.param]())


def a_write(built) -> tuple[str, dict[str, list[str]]]:
    """A new document reusing stored terms in every field, plus one unseen term."""
    terms = {}
    for field in built.fields:
        known = sorted(built.field_index(field).vocabulary())[:3]
        terms[field] = known + known[:1] + [f"unseen{field}"]
    return "ex:zz-written", terms


# ---------------------------------------------------------------------- #
# Structural equivalence
# ---------------------------------------------------------------------- #
class TestAdoptedIndexStructure:
    def test_at_load(self, built_engine):
        built = built_engine.index
        index = adopted(saved(built), built.fields)
        assert index.stored_documents() is not None
        assert index.epoch == built.epoch
        assert_same_index(index, built)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "statistics-cached"])
    @pytest.mark.parametrize("which", ["new", "existing"])
    def test_after_one_write(self, built_engine, warm, which):
        built = built_engine.index
        index = adopted(saved(built), built.fields)
        doc_id, terms = a_write(built)
        if which == "existing":
            doc_id = sorted(built.documents())[3]
        if warm:
            assert index.statistics() == built.statistics()
        written, built_written = (
            index.with_added_document(doc_id, terms),
            built.with_added_document(doc_id, terms),
        )
        assert written.stored_documents() is None and index.stored_documents() is not None
        # Only the written terms that were stored got decoded (to be copied).
        assert written.decoded_posting_lists() <= sum(map(len, terms.values()))
        assert_same_index(written, built_written)
        assert_same_index(index, built)  # the predecessor is untouched

    def test_after_a_resave_and_reload(self, built_engine):
        built = built_engine.index
        segment = saved(built)
        index = adopted(segment, built.fields)
        again = saved(index)
        assert index.decoded_posting_lists() == 0  # the re-save decoded nothing
        # Only the uid differs: equal descriptors carry equal checksums, so
        # the CSRs were written back byte for byte.
        first, second = SegmentView(segment).manifest, SegmentView(again).manifest
        assert {**first, "uid": 0} == {**second, "uid": 0}
        assert_same_index(adopted(again, built.fields), built)

        doc_id, terms = a_write(built)
        written = index.with_added_document(doc_id, terms)
        decoded = written.decoded_posting_lists()
        rewritten = saved(written)
        assert written.decoded_posting_lists() == decoded  # nor does a written one
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
        assert names.get_postings("x").frequencies() == {"a": 1, "c": 2}
        assert names.document_lengths() == {"a": 1, "b": 3, "c": 2}

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


def test_a_refused_index_segment_degrades_to_a_counted_rebuild(tmp_path):
    graph = DATASETS["random"]()
    queries = ["entity 7", "entity 12 entity 40"]
    with PivotE(graph) as system:
        expected = [[(hit.entity_id, hit.score) for hit in system.search(q)] for q in queries]
        system.save(str(tmp_path))
        index = system.search_engine.index
        manifest, builder = encode_index_snapshot(index, columnar_view(index))
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
    with PivotE.load(str(tmp_path)) as loaded:
        assert loaded.stats().storage.failures == 1
        assert loaded.search_engine.index.stored_documents() is None  # rebuilt in RAM
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
    def test_load_decodes_nothing_and_a_two_term_search_at_most_its_terms(self, saved_system):
        with PivotE.load(saved_system) as loaded:
            assert loaded.stats().storage.posting_lists_decoded == 0
            assert loaded.search("entity 42")
            decoded = loaded.stats().storage.posting_lists_decoded
            assert 0 < decoded <= 2 * len(loaded.config.search.fields)
            assert loaded.stats().as_dict()["storage"]["posting_lists_decoded"] == decoded

    def test_reading_stats_decodes_nothing(self, saved_system):
        with PivotE.load(saved_system) as loaded:
            for _ in range(3):
                loaded.stats()
                loaded.search_engine.stats()
            assert loaded.search_engine.index.decoded_posting_lists() == 0

    def test_a_field_decoded_wholesale_is_logged_once_naming_the_caller(self, saved_system, caplog):
        with PivotE.load(saved_system) as loaded, caplog.at_level(logging.INFO, logger="repro"):
            loaded.search("entity 42")
            assert not caplog.records
            names = loaded.search_engine.index.field_index("names")

            def walk_every_term() -> None:
                for term in sorted(names.vocabulary()):
                    names.get_postings(term)

            walk_every_term()
            walk_every_term()
        (record,) = caplog.records
        assert record.getMessage() == (
            f"index field 'names': all {len(names)} stored posting lists decoded, "
            "the last by walk_every_term"
        )

    def test_concurrent_first_reads_count_each_list_once(self, built_engine, caplog):
        built = built_engine.index
        segment, reference = saved(built), built.field_index("names")
        terms = sorted(reference.vocabulary())
        failures: list[BaseException] = []

        def reader(names, start: threading.Barrier) -> None:
            try:
                start.wait(timeout=60)
                for term in terms:
                    assert names.get_postings(term).frequencies() == (
                        reference.get_postings(term).frequencies()
                    )
            except BaseException as error:  # noqa: BLE001 - reported by the main thread
                failures.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):  # a fresh adopted index per round, all lists undecoded
                index = adopted(segment, built.fields)
                start = threading.Barrier(8)
                caplog.clear()
                with caplog.at_level(logging.INFO, logger="repro"):
                    threads = [
                        threading.Thread(target=reader, args=(index.field_index("names"), start))
                        for _ in range(8)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads) and not failures
                assert index.decoded_posting_lists() == len(terms)
                (record,) = caplog.records
                assert record.getMessage() == (
                    f"index field 'names': all {len(terms)} stored posting lists decoded, "
                    "the last by reader"
                )
        finally:
            sys.setswitchinterval(previous)
