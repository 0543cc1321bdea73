"""Scoring support for the accumulator-based retrieval hot path.

The scorers in :mod:`repro.search` walk each query term's postings once and
accumulate partial scores per document ("term-at-a-time" traversal).  This
module provides the shared substrate for that traversal:

* :class:`ScoringSupport` — per-(field, term) statistics resolved once per
  query term instead of once per scored document: the posting frequency map,
  the per-field document-length array built at index time, memoised
  collection probabilities and IDF weights (via
  :class:`~repro.index.statistics.CollectionStatistics`), and the
  cross-field document frequency BM25F needs.
* :func:`select_top_k` / :func:`select_top_k_with_zero_fill` — bounded-heap
  top-k selection over an accumulator map, with exactly the
  ``(-score, doc_id)`` ordering of the exhaustive sort, so accumulator
  results are byte-identical to score-all-then-sort results.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

from .postings import BLOCK_SIZE, BlockSummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fielded_index import FieldedIndex
    from .statistics import CollectionStatistics

_EMPTY_FREQUENCIES: dict[str, int] = {}


def _rank_key(item: tuple[str, float]) -> tuple[float, str]:
    doc_id, score = item
    return (-score, doc_id)


def select_top_k(accumulators: Mapping[str, float], k: int) -> list[tuple[str, float]]:
    """The ``k`` best ``(doc_id, score)`` pairs, ordered by ``(-score, doc_id)``.

    Uses a bounded heap (``heapq.nsmallest``) instead of sorting the whole
    accumulator map; for ``k >= len(accumulators)`` this degenerates to a
    full sort and returns exactly what the exhaustive path would.
    """
    if k <= 0:
        return []
    items = accumulators.items()
    if k >= len(accumulators):
        return sorted(items, key=_rank_key)
    return heapq.nsmallest(k, items, key=_rank_key)


def select_top_k_with_zero_fill(
    accumulators: Mapping[str, float],
    candidates: Iterable[str],
    k: int,
) -> list[tuple[str, float]]:
    """Top-k selection over accumulators plus zero-scored leftover candidates.

    BM25-family scorers only accumulate documents with at least one matching
    term in a scored field, but the exhaustive path ranks *every* candidate
    (documents matching only in unscored fields get score ``0.0`` and sort
    after all positive scores, by ``doc_id``).  This reproduces that tail
    without scoring the zero documents.
    """
    top = select_top_k(accumulators, k)
    missing = k - len(top)
    if missing <= 0:
        return top
    zeros = sorted(doc_id for doc_id in candidates if doc_id not in accumulators)
    top.extend((doc_id, 0.0) for doc_id in zeros[:missing])
    return top


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

    def postings_block_summary(
        self, field: str, term: str, block_size: int = BLOCK_SIZE
    ) -> BlockSummary | None:
        """The term's block-max range summaries, memoised per index epoch.

        ``None`` when the term does not occur in the field.  The summary
        (block boundaries plus per-block maximum term frequencies) is
        scorer-independent; scorers derive their per-block contribution
        bounds from it and memoise those separately, keyed by their own
        hyper-parameters (see :meth:`CollectionStatistics.memoised_blocks`).
        """
        postings = self._fields[field].get_postings(term)
        if postings is None:
            return None
        summary = self._statistics.memoised_blocks(
            ("blocks", field, term, block_size),
            lambda: postings.block_summary(block_size),
        )
        assert isinstance(summary, BlockSummary)
        return summary

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
