"""Tests for repro.search.mlm: the mixture-of-language-models scorer."""

from __future__ import annotations

import pytest

from index_oracle import sorted_build
from repro.config import SearchConfig
from repro.index import FieldedIndex
from repro.search import MixtureLanguageModelScorer, SingleFieldScorer, parse_query


@pytest.fixture
def index() -> FieldedIndex:
    return sorted_build(
        ["names", "attributes", "categories", "similar_entity_names", "related_entity_names"],
        {
            "e:gump": {
                "names": ["forrest", "gump"],
                "categories": ["american", "film"],
                "related_entity_names": ["tom", "hanks"],
            },
            "e:apollo": {
                "names": ["apollo", "13"],
                "categories": ["american", "film"],
                "related_entity_names": ["tom", "hanks"],
            },
            "e:terminator": {
                "names": ["the", "terminator"],
                "categories": ["american", "film"],
                "related_entity_names": ["arnold", "schwarzenegger"],
            },
        },
    )


class TestMixtureScorer:
    def test_exact_name_match_ranks_first(self, index: FieldedIndex):
        scorer = MixtureLanguageModelScorer(index)
        results = scorer.search(parse_query("forrest gump"))
        assert results[0].doc_id == "e:gump"

    def test_related_name_boosts(self, index: FieldedIndex):
        scorer = MixtureLanguageModelScorer(index)
        results = scorer.search(parse_query("tom hanks"))
        top_two = {result.doc_id for result in results[:2]}
        assert top_two == {"e:gump", "e:apollo"}

    def test_scores_are_descending(self, index: FieldedIndex):
        scorer = MixtureLanguageModelScorer(index)
        results = scorer.search(parse_query("american film"))
        scores = [result.score for result in results]
        assert scores == sorted(scores, reverse=True)

    def test_candidates_restricted_to_matching_documents(self, index: FieldedIndex):
        scorer = MixtureLanguageModelScorer(index)
        results = scorer.search(parse_query("terminator"))
        assert [result.doc_id for result in results] == ["e:terminator"]

    def test_no_match_returns_empty(self, index: FieldedIndex):
        scorer = MixtureLanguageModelScorer(index)
        assert scorer.search(parse_query("zzzzz")) == []

    def test_field_weights_normalised(self, index: FieldedIndex):
        scorer = MixtureLanguageModelScorer(index)
        assert sum(scorer.field_weights.values()) == pytest.approx(1.0)

    def test_field_restriction_scoring(self, index: FieldedIndex):
        scorer = MixtureLanguageModelScorer(index)
        results = scorer.search(parse_query("names:gump"))
        assert results[0].doc_id == "e:gump"

    def test_term_probability_positive_even_without_match(self, index: FieldedIndex):
        scorer = MixtureLanguageModelScorer(index)
        assert scorer.term_probability("gump", "e:terminator") > 0.0

    def test_top_k_respected(self, index: FieldedIndex):
        scorer = MixtureLanguageModelScorer(index, SearchConfig(top_k=1))
        assert len(scorer.search(parse_query("american"))) == 1

    def test_term_scores_breakdown(self, index: FieldedIndex):
        scorer = MixtureLanguageModelScorer(index)
        scored = scorer.score_document(parse_query("forrest gump"), "e:gump")
        assert set(scored.term_scores) == {"forrest", "gump"}
        assert scored.score == pytest.approx(sum(scored.term_scores.values()))

    def test_zero_weight_mass_rejected(self, index: FieldedIndex):
        config = SearchConfig(
            field_weights={field: 0.0 for field in index.fields} | {"names": 0.0}
        )
        with pytest.raises(ValueError):
            MixtureLanguageModelScorer(index, config)


class TestSingleFieldScorer:
    def test_names_only_misses_related_evidence(self, index: FieldedIndex):
        names_only = SingleFieldScorer(index, "names")
        results = names_only.search(parse_query("tom hanks"))
        # No document has "tom hanks" in its name, so all candidate scores tie
        # at the collection-smoothed floor; the mixture model does better
        # (see TestMixtureScorer.test_related_name_boosts).
        scores = {result.doc_id: result.score for result in results}
        if scores:
            assert max(scores.values()) == pytest.approx(min(scores.values()))

    def test_exact_name_still_works(self, index: FieldedIndex):
        names_only = SingleFieldScorer(index, "names")
        results = names_only.search(parse_query("terminator"))
        assert results[0].doc_id == "e:terminator"
