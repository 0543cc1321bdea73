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
  ordinals (ascending) and term frequencies.

The view's contents never change after construction (its columns are
filled in lazily) and it is memoised per index epoch on
:class:`~repro.index.statistics.CollectionStatistics` (via
:func:`columnar_view`): every index mutation makes a new statistics
object, so a stale view can never be observed.  A write does not rebuild
the view, though: the successor index's view is *derived* from this one
(:meth:`ColumnarIndex.successor` — one ordinal-table insert, one
``np.insert`` per length column, and the memoised postings handed over
to be remapped on demand), and a view is built from the whole index only
when there is none to derive from.  The doc-id → ordinal map is an
:class:`~repro.utils.ordinals.OrdinalMap`, so no epoch builds a
dictionary over all documents.  Nothing scorer-specific is kept on the
view: the language-model scorers build their per-term columns per query,
over the query's candidates only (see
:func:`repro.search.mlm.candidate_term_columns`).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from ..utils.ordinals import OrdinalMap

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

    Construction takes only the sorted document ids; every array column
    is materialised lazily on first use and memoised for the lifetime of
    the view (one index epoch).  An index that still answers from the
    stored CSRs it adopted (:meth:`FieldedIndex.stored_documents`) seeds
    the view from them: the stored ids are the ordinal table, and the
    columns are slices and casts of the stored arrays.  A view written
    from its predecessor's (:meth:`successor`) starts with the
    predecessor's length columns shifted and its postings memo to remap.
    """

    def __init__(self, index: "FieldedIndex", ordinals: OrdinalMap | None = None) -> None:
        self._fields = index.field_indexes()
        self._stored = index.stored_documents()
        if ordinals is not None:
            self._doc_ids = ordinals.ids
        elif self._stored is not None:
            self._doc_ids = self._stored.doc_ids
        else:
            self._doc_ids = sorted(index.documents())
        #: ``doc_id → ordinal``, built on first use unless inherited.
        self._ordinals = ordinals
        self._lengths: dict[str, np.ndarray] = {}
        self._postings: dict[tuple[str, str], ColumnarPostings] = {}
        #: The predecessor's postings memo, remapped entry by entry on
        #: demand (:meth:`successor`); never iterated, never written.
        self._inherited: dict[tuple[str, str], ColumnarPostings] = {}
        #: ``(ordinal, replaced, field → term counts)`` of the write that
        #: made this view from its predecessor's.
        self._write: tuple[int, bool, Mapping[str, Mapping[str, int]]] | None = None

    def successor(
        self,
        index: "FieldedIndex",
        doc_id: str,
        field_counts: Mapping[str, Mapping[str, int]],
    ) -> "ColumnarIndex":
        """The view of ``index``: this epoch's index with ``doc_id`` written.

        The ordinal table gets one insert (nothing for a replaced id);
        each length column this view has built gets one ``np.insert`` (one
        element set for a replaced id); the postings this view's readers
        memoised are handed over as they are and remapped one (field,
        term) at a time, when a query asks for it.  Only this view's own
        memo is carried — not what it inherited — so nothing chains from
        epoch to epoch, and nothing of this view is written.
        """
        ordinals, position = self.ordinal_of.with_inserted(doc_id)
        replaced = ordinals is self.ordinal_of
        view = ColumnarIndex(index, ordinals)
        for field, lengths in dict(self._lengths).items():
            length = float(sum(field_counts[field].values()))
            if replaced:
                lengths = lengths.copy()
                lengths[position] = length
            else:
                lengths = np.insert(lengths, position, length)
            view._lengths[field] = lengths
        view._inherited = dict(self._postings)  # one C-level copy: readers may be filling it
        view._write = (position, replaced, field_counts)
        return view

    @property
    def num_documents(self) -> int:
        return len(self._doc_ids)

    @property
    def doc_ids(self) -> list[str]:
        """All document ids in ordinal (= sorted) order; do not mutate."""
        return self._doc_ids

    @property
    def ordinal_of(self) -> OrdinalMap:
        """``doc_id -> ordinal`` for every document (read only)."""
        ordinals = self._ordinals
        if ordinals is None:
            # Benign race: concurrent first callers build equal maps.  A
            # stored view uses the stored documents' map.
            stored = self._stored
            ordinals = self._ordinals = (
                OrdinalMap(self._doc_ids) if stored is None else stored.ordinal_of()
            )
        return ordinals

    # ------------------------------------------------------------------ #
    # Ordinal table
    # ------------------------------------------------------------------ #
    def ordinals_of(self, doc_ids) -> np.ndarray:
        """Ascending ordinals of a set/iterable of known document ids."""
        ordinals = self.ordinal_of.array(doc_ids)
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
            document_lengths = self._fields[field].document_lengths()
            lengths[self.ordinal_of.array(document_lengths, len(document_lengths))] = np.fromiter(
                document_lengths.values(), dtype=np.float64, count=len(document_lengths)
            )
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
        inherited = self._inherited.get(key)
        if inherited is not None:
            columnar = self._remapped(field, term, inherited)
        elif self._stored is not None:
            stored = self._fields[field].columns.columns(term)
            if stored is not None:
                ordinals, frequencies = stored
                columnar = ColumnarPostings(ordinals, frequencies.astype(np.float64))
        else:
            posting_list = self._fields[field].get_postings(term)
            if posting_list is not None:
                frequencies = posting_list.frequencies()
                doc_ids = posting_list.doc_ids()  # sorted ⇒ ordinals ascending
                columnar = ColumnarPostings(
                    self.ordinal_of.array(doc_ids, len(doc_ids)),
                    np.fromiter(
                        map(frequencies.__getitem__, doc_ids), dtype=np.float64, count=len(doc_ids)
                    ),
                )
        if columnar is None:
            return None
        self._postings[key] = columnar
        return columnar

    def _remapped(
        self, field: str, term: str, inherited: ColumnarPostings
    ) -> ColumnarPostings | None:
        """A predecessor's postings of (field, term) moved into this epoch.

        The written document sits at ordinal ``position``: a new one
        shifts every ordinal at or past it by one (``o + (o >= p)``), a
        replaced one drops its old entry; then its own tf, if it holds
        the term, goes in at ``position``.
        """
        position, replaced, field_counts = self._write  # type: ignore[misc]
        ordinals, frequencies = inherited.ordinals, inherited.frequencies
        if replaced:
            kept = ordinals != position
            ordinals, frequencies = ordinals[kept], frequencies[kept]
        else:
            ordinals = ordinals + (ordinals >= position)
        count = field_counts[field].get(term, 0)
        if count:
            at = int(np.searchsorted(ordinals, position))
            ordinals = np.insert(ordinals, at, position)
            frequencies = np.insert(frequencies, at, float(count))
        return ColumnarPostings(ordinals, frequencies) if ordinals.size else None


def columnar_view(index: "FieldedIndex") -> ColumnarIndex:
    """The columnar view of an index, memoised per epoch.

    Stored on the epoch's :class:`CollectionStatistics` object, so the
    view shares the statistics' lifetime.  A successor index made by
    :meth:`~repro.index.fielded_index.FieldedIndex.with_added_document`
    arrives with its view already derived; this builds one only when
    there was nothing to derive it from.
    """
    statistics = index.statistics()
    view = statistics.columnar_view
    if view is None:
        view = statistics.columnar_view = ColumnarIndex(index)
    assert isinstance(view, ColumnarIndex)
    return view
