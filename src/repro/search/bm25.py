"""The BM25F baseline for entity retrieval.

The paper's search engine uses a mixture of language models; BM25F
(Robertson & Zaragoza) is the standard lexical alternative and serves as
the comparison point of the E7 search-quality experiment.  It is a
baseline only, so it has one form: :meth:`BM25FScorer.search_exhaustive`
scores every candidate with :meth:`BM25FScorer.score_document` and
sorts.  No kernel, bound or re-scoring epilogue runs for it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from ..index import FieldedIndex
from .mlm import ScoredDocument
from .query import KeywordQuery


@dataclass(frozen=True)
class BM25Params:
    """BM25 hyper-parameters."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if not math.isfinite(self.k1) or self.k1 < 0:
            raise ValueError("k1 must be non-negative and finite")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must lie in [0, 1]")


def idf(num_documents: int, document_frequency: int) -> float:
    """Robertson-Sparck-Jones IDF with the +0.5 correction (never negative)."""
    numerator = num_documents - document_frequency + 0.5
    denominator = document_frequency + 0.5
    return max(0.0, math.log(1.0 + numerator / denominator))


class BM25FScorer:
    """BM25F: term frequencies are combined across fields with field weights
    before a single saturation, following Robertson & Zaragoza.

    The document count and the per-field average lengths are snapshotted
    when the scorer is built.
    """

    def __init__(
        self,
        index: FieldedIndex,
        field_weights: Mapping[str, float],
        params: BM25Params | None = None,
    ) -> None:
        total = sum(field_weights.get(field, 0.0) for field in index.fields)
        if total <= 0:
            raise ValueError("field weights must have positive mass over the index fields")
        self._index = index
        self._params = params or BM25Params()
        self._weights = {field: field_weights.get(field, 0.0) / total for field in index.fields}
        self._avg_lengths = {
            field: index.field_index(field).average_document_length for field in index.fields
        }
        self._num_documents = index.num_documents

    def _weighted_tf(self, term: str, doc_id: str) -> float:
        weighted = 0.0
        for field, weight in self._weights.items():
            if weight == 0.0:
                continue
            tf = self._index.term_frequency(field, term, doc_id)
            if tf == 0:
                continue
            avg_len = self._avg_lengths[field]
            doc_len = self._index.document_length(field, doc_id)
            length_norm = 1.0 - self._params.b + self._params.b * (
                doc_len / avg_len if avg_len > 0 else 1.0
            )
            weighted += weight * tf / length_norm
        return weighted

    def _document_frequency(self, term: str) -> int:
        docs: set[str] = set()
        for field in self._index.fields:
            docs.update(self._index.field_index(field).documents_containing(term))
        return len(docs)

    def score_document(self, query: KeywordQuery, doc_id: str) -> ScoredDocument:
        score = 0.0
        term_scores: dict[str, float] = {}
        for term in query.all_terms():
            weighted_tf = self._weighted_tf(term, doc_id)
            if weighted_tf == 0.0:
                term_scores[term] = 0.0
                continue
            weight = idf(self._num_documents, self._document_frequency(term))
            contribution = weight * weighted_tf / (weighted_tf + self._params.k1)
            term_scores[term] = contribution
            score += contribution
        return ScoredDocument(doc_id=doc_id, score=score, term_scores=term_scores)

    def search_exhaustive(self, query: KeywordQuery, top_k: int = 20) -> list[ScoredDocument]:
        """Score every candidate and fully sort by ``(-score, doc_id)``."""
        candidates = self._index.candidate_documents(query.all_terms())
        scored = [self.score_document(query, doc_id) for doc_id in candidates]
        scored.sort(key=lambda result: (-result.score, result.doc_id))
        return scored[:top_k]
