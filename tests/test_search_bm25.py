"""Tests for repro.search.bm25: the BM25F baseline."""

from __future__ import annotations

import pytest

from index_oracle import sorted_build
from repro.index import FieldedIndex
from repro.search import BM25FScorer, BM25Params, idf, parse_query


@pytest.fixture
def index() -> FieldedIndex:
    return sorted_build(
        ["names", "categories"],
        {
            "e:gump": {"names": ["forrest", "gump"], "categories": ["american", "film"]},
            "e:apollo": {"names": ["apollo", "13"], "categories": ["american", "film"]},
            "e:long": {"names": ["gump"] + ["filler"] * 30, "categories": ["film"]},
        },
    )


class TestIdf:
    def test_rare_term_higher(self):
        assert idf(100, 1) > idf(100, 50)

    def test_never_negative(self):
        assert idf(10, 10) >= 0.0
        assert idf(10, 9) >= 0.0

    def test_zero_df(self):
        assert idf(100, 0) > idf(100, 1)


class TestBM25Params:
    def test_validation(self):
        with pytest.raises(ValueError):
            BM25Params(k1=-1)
        with pytest.raises(ValueError):
            BM25Params(b=2.0)

    @pytest.mark.parametrize("k1", [float("nan"), float("inf")])
    def test_non_finite_k1_rejected(self, k1):
        """A NaN ``k1`` would make every BM25F score NaN."""
        with pytest.raises(ValueError, match="k1"):
            BM25Params(k1=k1)

    def test_defaults(self):
        params = BM25Params()
        assert params.k1 == pytest.approx(1.2)
        assert params.b == pytest.approx(0.75)


class TestBM25FScorer:
    def test_combines_fields(self, index: FieldedIndex):
        scorer = BM25FScorer(index, {"names": 0.7, "categories": 0.3})
        results = scorer.search_exhaustive(parse_query("gump film"))
        assert results[0].doc_id in {"e:gump", "e:long"}
        assert results[0].score > 0

    def test_weight_normalisation_required(self, index: FieldedIndex):
        with pytest.raises(ValueError):
            BM25FScorer(index, {"names": 0.0, "categories": 0.0})

    def test_category_only_match(self, index: FieldedIndex):
        scorer = BM25FScorer(index, {"names": 0.5, "categories": 0.5})
        results = scorer.search_exhaustive(parse_query("american"))
        assert {r.doc_id for r in results} == {"e:gump", "e:apollo"}

    def test_top_k(self, index: FieldedIndex):
        scorer = BM25FScorer(index, {"names": 0.5, "categories": 0.5})
        assert len(scorer.search_exhaustive(parse_query("film"), top_k=2)) == 2

    def test_length_normalisation_penalises_long_documents(self, index: FieldedIndex):
        scorer = BM25FScorer(index, {"names": 1.0, "categories": 0.0})
        results = {r.doc_id: r.score for r in scorer.search_exhaustive(parse_query("gump"))}
        assert results["e:gump"] > results["e:long"]

    def test_scores_descending_with_doc_id_tie_break(self, index: FieldedIndex):
        scorer = BM25FScorer(index, {"names": 0.5, "categories": 0.5})
        results = scorer.search_exhaustive(parse_query("american film"))
        assert results == sorted(results, key=lambda r: (-r.score, r.doc_id))

    def test_candidates_matching_only_unweighted_fields_score_zero(self, index: FieldedIndex):
        """A candidate holding the term only in a zero-weight field ranks at 0.0."""
        scorer = BM25FScorer(index, {"names": 1.0, "categories": 0.0})
        results = scorer.search_exhaustive(parse_query("american"), top_k=10)
        assert [(r.doc_id, r.score) for r in results] == [("e:apollo", 0.0), ("e:gump", 0.0)]

    def test_non_matching_document_scores_zero(self, index: FieldedIndex):
        scorer = BM25FScorer(index, {"names": 0.5, "categories": 0.5})
        assert scorer.score_document(parse_query("apollo"), "e:gump").score == 0.0
