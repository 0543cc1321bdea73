"""Scoring support for the retrieval scorers.

The scorers in :mod:`repro.search` resolve each query term's statistics
once per query — for the kernels' bounds, the subset-pool θ priming and
the exact re-scoring epilogue.  This module provides the shared substrate:

* :class:`ScoringSupport` — per-(field, term) statistics resolved once per
  query term instead of once per scored document: the posting frequency map,
  the per-field document-length array built at index time, memoised
  collection probabilities and IDF weights (via
  :class:`~repro.index.statistics.CollectionStatistics`), and the
  cross-field document frequency BM25F needs.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fielded_index import FieldedIndex
    from .statistics import CollectionStatistics

_EMPTY_FREQUENCIES: dict[str, int] = {}


class ScoringSupport:
    """Per-query-term statistics lookups over one :class:`FieldedIndex`.

    An instance is only valid for the index epoch it was built at; the index
    hands out a fresh instance after any mutation (see
    :meth:`~repro.index.fielded_index.FieldedIndex.scoring_support`).
    """

    def __init__(self, index: "FieldedIndex", statistics: "CollectionStatistics") -> None:
        self._fields = index.field_indexes()
        self._statistics = statistics
        self._any_field_df: dict[str, int] = {}

    @property
    def statistics(self) -> "CollectionStatistics":
        """The cached collection statistics backing this support object."""
        return self._statistics

    def field_lengths(self, field: str) -> Mapping[str, int]:
        """The ``doc_id -> length`` map of one field, shared with the index (read-only)."""
        return self._fields[field].document_lengths()

    def postings_frequencies(self, field: str, term: str) -> Mapping[str, int]:
        """The ``doc_id -> tf`` map of one term in one field (read-only).

        Returns a shared empty mapping when the term does not occur, so the
        hot loop never allocates.
        """
        postings = self._fields[field].get_postings(term)
        if postings is None:
            return _EMPTY_FREQUENCIES
        return postings.frequencies()

    def collection_probability(self, field: str, term: str) -> float:
        """Memoised ``p(term | field collection)``."""
        return self._statistics.collection_probability(field, term)

    def idf(self, field: str, term: str) -> float:
        """Memoised per-field Robertson-Sparck-Jones IDF."""
        return self._statistics.idf(field, term)

    def document_frequency_any_field(self, term: str) -> int:
        """Documents containing ``term`` in at least one field (memoised).

        This is the cross-field document frequency BM25F weights terms by.
        """
        cached = self._any_field_df.get(term)
        if cached is not None:
            return cached
        docs: set[str] = set()
        for field_index in self._fields.values():
            postings = field_index.get_postings(term)
            if postings is not None:
                docs.update(postings.frequencies())
        df = len(docs)
        self._any_field_df[term] = df
        return df
