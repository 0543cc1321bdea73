"""Tests for repro.index: one field's reads and the fielded index."""

from __future__ import annotations

import gc
import weakref

import pytest

from index_oracle import sorted_build
from repro.exceptions import FieldNotFoundError
from repro.index import FieldedIndex, InvertedIndex, columnar_view


class TestField:
    @pytest.fixture
    def index(self) -> InvertedIndex:
        documents = {
            "d1": {"names": ["forrest", "gump", "gump"]},
            "d2": {"names": ["apollo", "13"]},
            "d3": {"names": []},
        }
        return sorted_build(["names"], documents).field_index("names")

    def test_term_frequency(self, index: InvertedIndex):
        assert index.term_frequency("gump", "d1") == 2
        assert index.term_frequency("gump", "d2") == 0
        assert index.term_frequency("gump", "missing") == 0

    def test_term_counts(self, index: InvertedIndex):
        assert index.term_counts("gump") == (2, 1, 2)  # cf, df, max tf
        assert index.term_counts("missing") == (0, 0, 0)

    def test_collection_statistics(self, index: InvertedIndex):
        assert index.max_frequency("gump") == 2
        assert index.total_terms == 5
        assert index.collection_probability("gump") == pytest.approx(2 / 5)
        assert index.collection_probability("missing") == 0.0

    def test_document_lengths(self, index: InvertedIndex):
        assert index.document_length("d1") == 3
        assert index.document_length("d3") == 0
        assert index.document_length("missing") == 0
        assert index.lengths().tolist() == [3.0, 2.0, 0.0]
        assert (index.min_length, index.max_length) == (0, 3)

    def test_empty_document_registered(self, index: InvertedIndex):
        assert index.num_documents == 3

    def test_documents_containing(self, index: InvertedIndex):
        assert index.documents_containing("gump") == ["d1"]
        assert index.documents_containing("missing") == []

    def test_contains(self, index: InvertedIndex):
        assert "forrest" in index
        assert "missing" not in index

    def test_average_document_length(self, index: InvertedIndex):
        assert index.average_document_length == pytest.approx(5 / 3)


class TestFieldedIndex:
    @pytest.fixture
    def index(self) -> FieldedIndex:
        return sorted_build(
            ["names", "categories"],
            {
                "e1": {"names": ["forrest", "gump"], "categories": ["american", "film"]},
                "e2": {"names": ["apollo"], "categories": ["american", "film"]},
            },
        )

    def test_requires_at_least_one_field(self):
        with pytest.raises(ValueError):
            FieldedIndex([])

    def test_unknown_field_rejected_on_write(self, index: FieldedIndex):
        with pytest.raises(FieldNotFoundError):
            index.with_added_document("e3", {"bogus": ["x"]})

    def test_unknown_field_rejected_on_lookup(self, index: FieldedIndex):
        with pytest.raises(FieldNotFoundError):
            index.term_frequency("bogus", "x", "e1")

    def test_missing_field_indexed_empty(self):
        index = FieldedIndex(["names", "categories"]).with_added_document("e1", {"names": ["x"]})
        assert index.document_length("categories", "e1") == 0
        assert index.num_documents == 1

    def test_term_frequency_per_field(self, index: FieldedIndex):
        assert index.term_frequency("names", "gump", "e1") == 1
        assert index.term_frequency("categories", "gump", "e1") == 0

    def test_candidate_documents(self, index: FieldedIndex):
        assert index.candidate_documents(["gump"]) == {"e1"}
        assert index.candidate_documents(["american"]) == {"e1", "e2"}
        assert index.candidate_documents(["missing"]) == set()

    def test_field_statistics(self, index: FieldedIndex):
        assert index.num_documents == 2
        assert index.field_index("names").total_terms == 3
        assert index.field_index("categories").average_document_length == 2.0

    def test_collection_probability(self, index: FieldedIndex):
        assert index.collection_probability("categories", "american") == pytest.approx(0.5)

    def test_contains_and_len(self, index: FieldedIndex):
        assert "e1" in index and "e3" not in index
        assert len(index) == 2
        assert index.doc_ids == ["e1", "e2"]

    def test_superseded_snapshot_is_freed_without_the_cyclic_collector(self):
        index = sorted_build(["names"], {"e1": {"names": ["forrest", "gump"]}})
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
