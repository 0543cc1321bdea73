"""Scoring support for the retrieval scorers.

The language-model scorers in :mod:`repro.search` resolve each query
term's statistics once per query — for the kernel's bounds and the
exact re-scoring epilogue.  :class:`ScoringSupport` is that per-epoch
handle: the epoch's :class:`~repro.index.statistics.CollectionStatistics`
and its memoised collection probabilities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .statistics import CollectionStatistics


class ScoringSupport:
    """Per-query-term statistics lookups over one index epoch.

    An instance is only valid for the index epoch it was built at; the index
    hands out a fresh instance after any mutation (see
    :meth:`~repro.index.fielded_index.FieldedIndex.scoring_support`).
    """

    def __init__(self, statistics: "CollectionStatistics") -> None:
        self._statistics = statistics

    @property
    def statistics(self) -> "CollectionStatistics":
        """The cached collection statistics backing this support object."""
        return self._statistics

    def collection_probability(self, field: str, term: str) -> float:
        """Memoised ``p(term | field collection)``."""
        return self._statistics.collection_probability(field, term)
