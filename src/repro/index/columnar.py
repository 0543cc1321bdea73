"""Columnar (structure-of-arrays) views over one index epoch.

The index answers in Python dicts: ``doc_id -> tf`` postings maps and
``doc_id -> length`` maps.  This module materialises the same data as
contiguous numpy arrays once per index epoch, so the traversal kernels
in :mod:`repro.topk.kernels` score with vectorized operations:

* a doc-id ↔ ordinal table — ordinals are assigned in sorted-doc-id
  order, so **ordinal order is exactly the ``doc_id`` tie-break order**
  of the ranking contract (``(-score, doc_id)``), and vectorized
  selections can break ties on the ordinal;
* per-field document-length arrays indexed by ordinal;
* :class:`ColumnarPostings` per (field, term): parallel arrays of doc
  ordinals (ascending) and term frequencies;
* CRC shard-ownership maps mirroring :func:`repro.exec.sharding.shard_of`,
  so the parent's shard slices match the process tier's ownership cut.

The view is immutable after construction and is memoised per index epoch
on :class:`~repro.index.statistics.CollectionStatistics` (via
:func:`columnar_view`), next to the scorers' memoised bounds: any index
mutation rebuilds the statistics object and therefore drops the view, so
a stale view can never be observed.  The BM25 scorers memoise their
own derived arrays on the view through :meth:`ColumnarIndex.memoised`;
the language-model scorers build their per-term columns per query, over
the query's candidates only (see :func:`repro.search.mlm.candidate_term_columns`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..exec.sharding import shard_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fielded_index import FieldedIndex


class ColumnarPostings:
    """One (field, term) posting list as parallel arrays.

    ``ordinals``     ascending document ordinals (int64);
    ``frequencies``  term frequencies aligned with ``ordinals`` (float64 —
                     term frequencies are small integers, exactly
                     representable).
    """

    __slots__ = ("ordinals", "frequencies")

    def __init__(self, ordinals: np.ndarray, frequencies: np.ndarray) -> None:
        self.ordinals = ordinals
        self.frequencies = frequencies

    def __len__(self) -> int:
        return int(self.ordinals.size)


class ColumnarIndex:
    """The per-epoch columnar view over one :class:`FieldedIndex`.

    Construction builds only the ordinal table; every array column is
    materialised lazily on first use and memoised for the lifetime of
    the view (one index epoch).  An index that still answers from the
    stored CSRs it adopted (:meth:`FieldedIndex.stored_documents`) seeds
    the view from them: the stored ids are the ordinal table, and the
    columns are slices and casts of the stored arrays.
    """

    def __init__(self, index: "FieldedIndex") -> None:
        self._fields = index.field_indexes()
        self._stored = index.stored_documents()
        if self._stored is None:
            self._doc_ids: list[str] = sorted(index.documents())
            self._ord_of: dict[str, int] = dict(zip(self._doc_ids, range(len(self._doc_ids))))
        else:
            self._doc_ids = self._stored.doc_ids
            self._ord_of = self._stored.ordinal_of()
        self._lengths: dict[str, np.ndarray] = {}
        self._postings: dict[tuple[str, str], ColumnarPostings] = {}
        self._shard_maps: dict[int, np.ndarray] = {}
        self._derived: dict[tuple[object, ...], object] = {}

    @property
    def num_documents(self) -> int:
        return len(self._doc_ids)

    @property
    def doc_ids(self) -> list[str]:
        """All document ids in ordinal (= sorted) order; do not mutate."""
        return self._doc_ids

    @property
    def ordinal_of(self) -> dict[str, int]:
        """``doc_id -> ordinal`` for every document; do not mutate."""
        return self._ord_of

    # ------------------------------------------------------------------ #
    # Ordinal table
    # ------------------------------------------------------------------ #
    def ordinals_of(self, doc_ids) -> np.ndarray:
        """Ascending ordinals of a set/iterable of known document ids."""
        ord_of = self._ord_of
        ordinals = np.fromiter(
            (ord_of[doc_id] for doc_id in doc_ids), dtype=np.int64
        )
        ordinals.sort()
        return ordinals

    def ids_of(self, ordinals: np.ndarray) -> list[str]:
        """Document ids of an ordinal array (order preserved)."""
        doc_ids = self._doc_ids
        return [doc_ids[ordinal] for ordinal in ordinals]

    # ------------------------------------------------------------------ #
    # Array columns (lazy, memoised per view == per epoch)
    # ------------------------------------------------------------------ #
    def field_lengths(self, field: str) -> np.ndarray:
        """One field's document lengths indexed by ordinal (float64)."""
        cached = self._lengths.get(field)
        if cached is not None:
            return cached
        if self._stored is not None:
            lengths = self._fields[field].columns.lengths.astype(np.float64)
        else:
            lengths = np.zeros(len(self._doc_ids), dtype=np.float64)
            ord_of = self._ord_of
            for doc_id, length in self._fields[field].document_lengths().items():
                lengths[ord_of[doc_id]] = length
        self._lengths[field] = lengths
        return lengths

    def postings(self, field: str, term: str) -> ColumnarPostings | None:
        """The (field, term) columnar postings, or ``None`` when absent.

        Absent pairs are not memoised: the answer is one dict lookup
        either way, and a memo entry per (field, term) a query names
        would grow with every distinct search.
        """
        key = (field, term)
        columnar = self._postings.get(key)
        if columnar is not None:
            return columnar
        if self._stored is not None:
            stored = self._fields[field].columns.columns(term)
            if stored is None:
                return None
            ordinals, frequencies = stored
            columnar = ColumnarPostings(ordinals, frequencies.astype(np.float64))
        else:
            posting_list = self._fields[field].get_postings(term)
            if posting_list is None or len(posting_list) == 0:
                return None
            frequencies = posting_list.frequencies()
            doc_ids = posting_list.doc_ids()  # sorted ⇒ ordinals ascending
            ord_of = self._ord_of
            ordinals = np.fromiter(
                (ord_of[doc_id] for doc_id in doc_ids), dtype=np.int64, count=len(doc_ids)
            )
            tfs = np.fromiter(
                (frequencies[doc_id] for doc_id in doc_ids),
                dtype=np.float64,
                count=len(doc_ids),
            )
            columnar = ColumnarPostings(ordinals, tfs)
        self._postings[key] = columnar
        return columnar

    def shard_map(self, num_shards: int) -> np.ndarray:
        """Per-ordinal shard ownership under CRC routing (int64).

        Matches :func:`repro.exec.sharding.shard_of` entry for entry, and
        therefore the stored-CRC ownership the process tier's workers
        read (:meth:`repro.storage.codec.SegmentView.shard_owners`).
        """
        cached = self._shard_maps.get(num_shards)
        if cached is not None:
            return cached
        owners = np.fromiter(
            (shard_of(doc_id, num_shards) for doc_id in self._doc_ids),
            dtype=np.int64,
            count=len(self._doc_ids),
        )
        self._shard_maps[num_shards] = owners
        return owners

    def memoised(self, key: tuple[object, ...], compute):
        """Memoise a scorer-derived array on the view (per-epoch lifetime).

        Scorers key their derived columns by their own
        hyper-parameters, mirroring the
        :meth:`~repro.index.statistics.CollectionStatistics.memoised_bound`
        convention.
        """
        cached = self._derived.get(key)
        if cached is None:
            cached = compute()
            self._derived[key] = cached
        return cached


def columnar_view(index: "FieldedIndex") -> ColumnarIndex:
    """The columnar view of an index, memoised per epoch.

    Stored on the epoch's :class:`CollectionStatistics` object (which
    also memoises the scorer bounds), so the view shares the statistics'
    lifetime: any mutation rebuilds the statistics and thereby drops the
    view.
    """
    statistics = index.statistics()
    view = statistics.columnar_view
    if view is None:
        view = statistics.columnar_view = ColumnarIndex(index)
    assert isinstance(view, ColumnarIndex)
    return view
