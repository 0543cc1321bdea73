"""Tests for repro.index: postings, single-field and fielded indexes."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.exceptions import FieldNotFoundError
from repro.index import (
    FieldedIndex,
    InvertedIndex,
    Posting,
    PostingList,
    columnar_view,
    intersect,
    merge_frequencies,
    union,
)


class TestPostingList:
    def test_add_and_frequency(self):
        postings = PostingList()
        postings.add("d1", 2)
        postings.add("d1", 1)
        postings.add("d2")
        assert postings.frequency("d1") == 3
        assert postings.frequency("d2") == 1
        assert postings.frequency("d3") == 0

    def test_document_and_collection_frequency(self):
        postings = PostingList()
        postings.add("d1", 2)
        postings.add("d2", 5)
        assert postings.document_frequency() == 2
        assert postings.collection_frequency() == 7

    def test_doc_ids_sorted(self):
        postings = PostingList()
        for doc in ["z", "a", "m"]:
            postings.add(doc)
        assert postings.doc_ids() == ["a", "m", "z"]

    def test_iteration_yields_postings(self):
        postings = PostingList()
        postings.add("d1", 2)
        items = list(postings)
        assert items == [Posting("d1", 2)]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            PostingList().add("d1", 0)

    def test_posting_invalid_frequency(self):
        with pytest.raises(ValueError):
            Posting("d1", 0)

    def test_contains_and_len(self):
        postings = PostingList()
        postings.add("d1")
        assert "d1" in postings
        assert len(postings) == 1

    def test_intersect_union_merge(self):
        left, right = PostingList(), PostingList()
        for doc in ["a", "b", "c"]:
            left.add(doc)
        for doc in ["b", "c", "d"]:
            right.add(doc, 2)
        assert intersect(left, right) == ["b", "c"]
        assert union(left, right) == ["a", "b", "c", "d"]
        merged = merge_frequencies([left, right])
        assert merged == {"a": 1, "b": 3, "c": 3, "d": 2}


class TestInvertedIndex:
    @pytest.fixture
    def index(self) -> InvertedIndex:
        idx = InvertedIndex("names")
        idx.add_document("d1", ["forrest", "gump", "gump"])
        idx.add_document("d2", ["apollo", "13"])
        idx.add_document("d3", [])
        return idx

    def test_term_frequency(self, index: InvertedIndex):
        assert index.term_frequency("gump", "d1") == 2
        assert index.term_frequency("gump", "d2") == 0

    def test_document_frequency(self, index: InvertedIndex):
        assert index.document_frequency("gump") == 1
        assert index.document_frequency("missing") == 0

    def test_collection_statistics(self, index: InvertedIndex):
        assert index.collection_frequency("gump") == 2
        assert index.total_terms == 5
        assert index.collection_probability("gump") == pytest.approx(2 / 5)

    def test_document_lengths(self, index: InvertedIndex):
        assert index.document_length("d1") == 3
        assert index.document_length("d3") == 0
        assert index.document_length("missing") == 0

    def test_empty_document_registered(self, index: InvertedIndex):
        assert "d3" in index.documents()
        assert index.num_documents == 3

    def test_documents_containing(self, index: InvertedIndex):
        assert index.documents_containing("gump") == ["d1"]
        assert index.documents_containing_any(["gump", "apollo"]) == {"d1", "d2"}

    def test_vocabulary_and_contains(self, index: InvertedIndex):
        assert "forrest" in index
        assert "missing" not in index
        assert len(index) == 4

    def test_average_document_length(self, index: InvertedIndex):
        assert index.average_document_length == pytest.approx(5 / 3)

    def test_incremental_add_same_document(self):
        idx = InvertedIndex()
        idx.add_document("d1", ["a"])
        idx.add_document("d1", ["b", "a"])
        assert idx.document_length("d1") == 3
        assert idx.term_frequency("a", "d1") == 2


class TestFieldedIndex:
    @pytest.fixture
    def index(self) -> FieldedIndex:
        idx = FieldedIndex(["names", "categories"])
        idx.add_document("e1", {"names": ["forrest", "gump"], "categories": ["american", "film"]})
        idx.add_document("e2", {"names": ["apollo"], "categories": ["american", "film"]})
        return idx

    def test_requires_at_least_one_field(self):
        with pytest.raises(ValueError):
            FieldedIndex([])

    def test_unknown_field_rejected_on_add(self, index: FieldedIndex):
        with pytest.raises(FieldNotFoundError):
            index.add_document("e3", {"bogus": ["x"]})

    def test_unknown_field_rejected_on_lookup(self, index: FieldedIndex):
        with pytest.raises(FieldNotFoundError):
            index.term_frequency("bogus", "x", "e1")

    def test_missing_field_indexed_empty(self):
        idx = FieldedIndex(["names", "categories"])
        idx.add_document("e1", {"names": ["x"]})
        assert idx.document_length("categories", "e1") == 0
        assert idx.num_documents == 1

    def test_term_frequency_per_field(self, index: FieldedIndex):
        assert index.term_frequency("names", "gump", "e1") == 1
        assert index.term_frequency("categories", "gump", "e1") == 0

    def test_candidate_documents(self, index: FieldedIndex):
        assert index.candidate_documents(["gump"]) == {"e1"}
        assert index.candidate_documents(["american"]) == {"e1", "e2"}
        assert index.candidate_documents(["missing"]) == set()

    def test_statistics(self, index: FieldedIndex):
        stats = index.statistics()
        assert stats.num_documents == 2
        assert stats.field("names").total_terms == 3
        assert stats.field("categories").average_length == 2.0
        assert stats.vocabulary_size() >= 4

    def test_collection_probability(self, index: FieldedIndex):
        assert index.collection_probability("categories", "american") == pytest.approx(0.5)

    def test_contains_and_len(self, index: FieldedIndex):
        assert "e1" in index
        assert len(index) == 2


class TestCopyOnWriteSuccessor:
    """``with_added_document``: inherited statistics, no reference cycles."""

    DOCUMENTS = [
        ("e1", {"names": ["forrest", "gump", "gump"], "categories": ["american", "film"]}),
        ("e2", {"names": ["apollo"], "categories": ["american", "film"]}),
        ("e3", {"names": [], "categories": ["film", "film", "film", "space"]}),  # empty field, new max tf
        ("e4", {"names": ["gump", "sequel", "of", "forrest", "gump"]}),  # missing field, new longest
    ]

    def test_successor_statistics_equal_a_fresh_scan(self):
        index = FieldedIndex(["names", "categories"])
        for doc_id, field_terms in self.DOCUMENTS:
            index.statistics()  # the predecessor's epoch statistics exist
            index = index.with_added_document(doc_id, field_terms)
            inherited = index._statistics_cache
            assert inherited is not None and inherited[0] == index.epoch
            index._statistics_cache = None
            scanned = index.statistics()
            assert inherited[1].num_documents == scanned.num_documents
            assert inherited[1].fields == scanned.fields  # field for field, count for count
            assert inherited[1].columnar_view is None

    def test_cold_predecessor_falls_back_to_the_scan_and_a_replaced_document_is_derived(self):
        index = FieldedIndex(["names", "categories"])
        index = index.with_added_document("e1", {"names": ["a"]})  # predecessor never scanned
        assert index._statistics_cache is None
        index.statistics()
        index = index.with_added_document("e1", {"names": ["b"]})  # re-indexes an existing id
        inherited = index._statistics_cache
        assert inherited is not None and inherited[0] == index.epoch
        index._statistics_cache = None
        assert inherited[1] == index.statistics()
        assert index.statistics().field("names").term_collection_frequency == {"b": 1}
        assert index.document_length("names", "e1") == 1 and len(index) == 1

    REWRITES = [
        ("e1", {"names": ["gump"], "categories": ["film"]}),  # held gump's max tf, the longest
        ("e3", {"names": ["space", "space"]}),  # loses every category term, space's max tf
        ("e2", {}),  # becomes empty: the shortest length moves
        ("e4", {"names": ["sequel"], "categories": ["film"] * 5}),  # a new max tf, drops forrest
        ("e4", {"names": ["sequel"], "categories": ["film"] * 5}),  # unchanged
    ]

    def test_replaced_document_statistics_equal_a_fresh_scan(self):
        index = FieldedIndex(["names", "categories"])
        for doc_id, field_terms in self.DOCUMENTS:
            index.add_document(doc_id, field_terms)
        for doc_id, field_terms in self.REWRITES:
            index.statistics()
            index = index.with_added_document(doc_id, field_terms)
            inherited = index._statistics_cache
            assert inherited is not None and inherited[0] == index.epoch
            index._statistics_cache = None
            scanned = index.statistics()
            assert inherited[1] == scanned and inherited[1].fields == scanned.fields
        rebuilt = FieldedIndex(["names", "categories"])
        final = dict(self.DOCUMENTS) | dict(self.REWRITES)
        for doc_id in sorted(final):
            rebuilt.add_document(doc_id, final[doc_id])
        assert index.statistics() == rebuilt.statistics()
        for field in index.fields:
            assert index.field_index(field).vocabulary() == rebuilt.field_index(field).vocabulary()
            assert index.field_index(field).document_lengths() == (
                rebuilt.field_index(field).document_lengths()
            )

    def test_superseded_snapshot_is_freed_without_the_cyclic_collector(self):
        index = FieldedIndex(["names", "categories"])
        index.add_document("e1", {"names": ["forrest", "gump"]})
        index.statistics()
        columnar_view(index).postings("names", "gump")
        successor = index.with_added_document("e2", {"names": ["apollo"]})
        gc.collect()
        gc.disable()
        try:
            dead = weakref.ref(index)
            del index
            assert dead() is None
        finally:
            gc.enable()
        assert successor.num_documents == 2
