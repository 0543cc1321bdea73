"""One field of the search index: a posting CSR plus the documents written since.

A field of an index epoch has one form.  Its *base* is an immutable
posting CSR (:class:`PostingColumns`) over the documents of one
:class:`DocumentColumns`, sorted out of a build's token rows
(:meth:`PostingColumns.from_tokens`) or decoded from a saved index.
Its *delta* is the documents written since that base, each with its
term counts, plus the inverse ``term -> {document: tf}`` of those
counts.  The documents of the epoch are one :class:`EpochDocuments`,
shared by every field of the epoch.

A read names a term and pays for that term: its postings in epoch
ordinals are the base row moved through the base-to-epoch ordinal shift,
less the rewritten documents, plus the delta documents holding the term;
its counts are the base row's memoised counts adjusted by the same rows.
Lengths come from the base length column plus the delta.  A write copies
the delta, never the base; :meth:`InvertedIndex.merged` folds the delta
into a new base by merging its cells into the base rows.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping

import numpy as np

from ..kg.columns import csr_merge, isin_sorted, spliced
from ..utils.ordinals import OrdinalMap
from .columnar import ColumnarPostings

_NONE = np.zeros(0, dtype=np.int64)


class DocumentColumns:
    """The documents of a base CSR: ids in ordinal order.

    Ordinals are positions in ``doc_ids``, which are strictly ascending,
    so ordinal order is doc-id order.  Shared, read only, by every field
    of an index and by the epochs written on top of it.  A loaded index
    whose documents are the graph's entities is given the entity map of
    the system's one dictionary; any other builds its own on first use.
    """

    __slots__ = ("doc_ids", "_ordinal_of")

    def __init__(self, doc_ids: list[str], ordinal_of: OrdinalMap | None = None) -> None:
        self.doc_ids = doc_ids
        self._ordinal_of = ordinal_of

    def ordinal_of(self) -> OrdinalMap:
        """``doc_id -> ordinal`` (built on first use unless given; read only)."""
        ordinal_of = self._ordinal_of
        if ordinal_of is None:
            ordinal_of = self._ordinal_of = OrdinalMap(self.doc_ids)
        return ordinal_of


class PostingColumns:
    """One field's base postings: a CSR over document ordinals.

    ``terms`` are strictly ascending; row ``r`` of the CSR is
    ``ordinals[offsets[r]:offsets[r + 1]]`` (ascending) with the parallel
    ``frequencies`` (int64, positive), and ``lengths`` is the field
    length of every document ordinal.  Immutable; shared by every epoch
    written on top of it.
    """

    __slots__ = (
        "documents", "terms", "offsets", "ordinals", "frequencies", "lengths",
        "total_terms", "_rows", "_counts",
    )

    def __init__(
        self,
        documents: DocumentColumns,
        terms: list[str],
        offsets: np.ndarray,
        ordinals: np.ndarray,
        frequencies: np.ndarray,
        lengths: np.ndarray,
    ) -> None:
        self.documents = documents
        self.terms = terms
        self.offsets = offsets
        self.ordinals = ordinals
        self.frequencies = frequencies
        self.lengths = lengths
        self.total_terms = int(lengths.sum())
        #: Memoised ``term -> row`` and ``term -> term_counts`` of stored
        #: terms a caller named.  A miss is never memoised, so both stay
        #: bounded by the vocabulary.
        self._rows: dict[str, int] = {}
        self._counts: dict[str, tuple[int, int, int]] = {}

    @classmethod
    def from_tokens(
        cls,
        documents: DocumentColumns,
        vocabulary: list[str],
        codes: np.ndarray,
        ordinals: np.ndarray,
    ) -> "PostingColumns":
        """The CSR of one field, sorted out of its token rows.

        Token ``i`` is term ``vocabulary[codes[i]]`` occurring once in
        the document of ordinal ``ordinals[i]``; ``vocabulary`` is
        strictly ascending, so a code is its term's rank.  One
        ``np.unique`` over ``code · N + ordinal`` groups the tokens into
        (term, document) cells, in row order, with their tf as counts;
        ``bincount`` cuts the rows and counts the field lengths.  Terms
        no token names are left out.
        """
        num_documents = len(documents.doc_ids)
        cells, frequencies = np.unique(codes * num_documents + ordinals, return_counts=True)
        rows, cell_ordinals = np.divmod(cells, max(num_documents, 1))
        sizes = np.bincount(rows, minlength=len(vocabulary))
        present = np.flatnonzero(sizes)
        offsets = np.zeros(present.size + 1, dtype=np.int64)
        np.cumsum(sizes[present], out=offsets[1:])
        return cls(
            documents,
            [vocabulary[code] for code in present.tolist()],
            offsets,
            cell_ordinals.astype(np.int64, copy=False),
            frequencies.astype(np.int64, copy=False),
            np.bincount(ordinals, minlength=num_documents).astype(np.int64, copy=False),
        )

    @classmethod
    def empty(cls, documents: DocumentColumns) -> "PostingColumns":
        """A CSR with no postings over ``documents`` (every length 0)."""
        lengths = np.zeros(len(documents.doc_ids), dtype=np.int64)
        return cls(documents, [], np.zeros(1, dtype=np.int64), _NONE, _NONE, lengths)

    def row(self, term: str) -> int | None:
        """The CSR row of ``term``, or ``None`` when it is not stored."""
        row = self._rows.get(term)
        if row is None:
            terms = self.terms
            row = bisect_left(terms, term)
            if row == len(terms) or terms[row] != term:
                return None
            self._rows[term] = row
        return row

    def columns(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """``(ordinals, frequencies)`` views of one term's row, or ``None``."""
        row = self.row(term)
        if row is None:
            return None
        start, end = int(self.offsets[row]), int(self.offsets[row + 1])
        return self.ordinals[start:end], self.frequencies[start:end]

    def term_counts(self, term: str) -> tuple[int, int, int]:
        """``(collection frequency, document frequency, max tf)`` of one term.

        Reduced from the term's row once, then memoised; ``(0, 0, 0)``
        when it is not stored.
        """
        counts = self._counts.get(term)
        if counts is None:
            row = self.columns(term)
            if row is None:
                return 0, 0, 0
            frequencies = row[1]
            counts = self._counts[term] = (
                int(frequencies.sum()), frequencies.size, int(frequencies.max())
            )
        return counts

    def length_of(self, doc_id: str) -> int:
        ordinal = self.documents.ordinal_of().get(doc_id)
        return 0 if ordinal is None else int(self.lengths[ordinal])


class EpochDocuments:
    """The documents of one index epoch: a base's plus the ids written since.

    ``written`` numbers the ids written since the base in write order
    (its slots); ``rewritten`` holds the base ordinals of the base
    documents among them, ascending; ``gaps`` holds, for each one the
    base lacks, how many base ids sort before it, ascending.  Base
    ordinal ``b`` is therefore epoch ordinal ``b`` plus the number of
    gaps ``<= b`` (:meth:`shift`).  Shared by every field of one epoch,
    which memoises the shift and the written ids' epoch ordinals.
    """

    __slots__ = (
        "base", "written", "rewritten", "gaps", "doc_ids", "_ordinal_of", "_positions",
        "_written_ordinals",
    )

    def __init__(
        self,
        base: DocumentColumns,
        written: dict[str, int] | None = None,
        rewritten: np.ndarray = _NONE,
        gaps: np.ndarray = _NONE,
        ordinal_of: OrdinalMap | None = None,
    ) -> None:
        self.base = base
        self.written = written or {}
        self.rewritten = rewritten
        self.gaps = gaps
        #: ``None`` while the epoch's ids are the base's (its map is then
        #: the base's, built on first use).
        self._ordinal_of = ordinal_of
        self.doc_ids = base.doc_ids if ordinal_of is None else ordinal_of.ids
        self._positions: np.ndarray | None = None
        self._written_ordinals: np.ndarray | None = None

    @property
    def ordinal_of(self) -> OrdinalMap:
        """``doc_id -> epoch ordinal`` (read only)."""
        ordinal_of = self._ordinal_of
        return self.base.ordinal_of() if ordinal_of is None else ordinal_of

    @property
    def num_written(self) -> int:
        """How many documents were written since the base."""
        return len(self.written)

    def shift(self, base_ordinals: np.ndarray) -> np.ndarray:
        """The epoch ordinals of some base ordinals."""
        if not self.gaps.size:
            return base_ordinals
        positions = self._positions
        if positions is None:
            stored = np.arange(len(self.base.doc_ids), dtype=np.int64)
            positions = self._positions = stored + np.searchsorted(self.gaps, stored, side="right")
        return positions[base_ordinals]

    def written_ordinals(self) -> np.ndarray:
        """The epoch ordinals of the written ids, by slot."""
        ordinals = self._written_ordinals
        if ordinals is None:
            written = self.written
            ordinals = self._written_ordinals = self.ordinal_of.array(written, len(written))
        return ordinals

    def with_written(self, doc_id: str) -> "EpochDocuments":
        """These documents with ``doc_id`` written (``self`` if it was since the base)."""
        if doc_id in self.written:
            return self
        base, rewritten, gaps = self.base, self.rewritten, self.gaps
        written = {**self.written, doc_id: len(self.written)}
        ordinal = base.ordinal_of().get(doc_id)
        if ordinal is not None:
            rewritten = np.insert(rewritten, np.searchsorted(rewritten, ordinal), ordinal)
            return EpochDocuments(base, written, rewritten, gaps, self._ordinal_of)
        gap = bisect_left(base.doc_ids, doc_id)
        gaps = np.insert(gaps, np.searchsorted(gaps, gap, side="right"), gap)
        ordinal_of = self.ordinal_of.with_inserted(doc_id)[0]
        return EpochDocuments(base, written, rewritten, gaps, ordinal_of)


class InvertedIndex:
    """One field of one index epoch: a base CSR plus the documents written since.

    ``written`` maps each document written since the base to its term
    counts in this field (empty for an empty field), in the order of the
    documents' slots; ``written_lengths`` holds their lengths by slot,
    and ``holders`` is the inverse, ``term -> {doc_id: tf}``.  All three
    are copied on write and never changed after, like the base.
    Per-epoch reads are memoised on the field: a term's epoch postings
    and counts, the collection probabilities and the length column.
    """

    __slots__ = (
        "name", "base", "documents", "total_terms", "_written", "_written_lengths", "_holders",
        "_columnar", "_counts", "_probabilities", "_lengths", "_extremes",
    )

    def __init__(
        self,
        name: str,
        base: PostingColumns,
        documents: EpochDocuments,
        written: Mapping[str, Mapping[str, int]] | None = None,
        written_lengths: np.ndarray = _NONE,
        holders: Mapping[str, Mapping[str, int]] | None = None,
        total_terms: int | None = None,
    ) -> None:
        self.name = name
        self.base = base
        self.documents = documents
        self._written = written or {}
        self._written_lengths = written_lengths
        self._holders = holders or {}
        self.total_terms = base.total_terms if total_terms is None else total_terms
        self._columnar: dict[str, ColumnarPostings] = {}
        self._counts: dict[str, tuple[int, int, int]] = {}
        self._probabilities: dict[str, float] = {}
        self._lengths: np.ndarray | None = None
        self._extremes: tuple[int, int] | None = None

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def with_written(
        self, documents: EpochDocuments, doc_id: str, counts: Mapping[str, int]
    ) -> "InvertedIndex":
        """This field with ``doc_id`` (re)written as ``counts``, over ``documents``.

        Copies the delta (its two maps and its length column) and the
        holder maps of the terms the document held or holds; the base is
        shared.
        """
        written, holders = dict(self._written), dict(self._holders)
        previous = written.get(doc_id)
        if previous is None:
            old_length = self.base.length_of(doc_id)
        else:
            old_length = sum(previous.values())
            for term in previous:
                held = dict(holders[term])
                del held[doc_id]
                if held:
                    holders[term] = held
                else:
                    del holders[term]
        for term, count in counts.items():
            held = dict(holders.get(term, ()))
            held[doc_id] = count
            holders[term] = held
        written[doc_id] = dict(counts)
        length = sum(counts.values())
        slot = documents.written[doc_id]
        if slot == self._written_lengths.size:
            lengths = np.append(self._written_lengths, length)
        else:
            lengths = self._written_lengths.copy()
            lengths[slot] = length
        total_terms = self.total_terms - old_length + length
        return InvertedIndex(
            self.name, self.base, documents, written, lengths, holders, total_terms
        )

    def merged(self, documents: DocumentColumns) -> PostingColumns:
        """This field as one CSR over ``documents``, the epoch's ids in order.

        The base cells of the rewritten documents are masked out and the
        rest moved to epoch ordinals; the terms new since the base get
        empty rows, and the delta's cells are merged into their rows
        (:func:`~repro.kg.columns.csr_merge`); rows left empty are dropped.
        Copies plus the delta, no sort of the field, and equal to a fresh
        build over the same documents.
        """
        base, epoch = self.base, self.documents
        if not epoch.num_written:
            return base
        offsets, ordinals, frequencies = base.offsets, base.ordinals, base.frequencies
        if epoch.rewritten.size:
            kept = ~isin_sorted(epoch.rewritten, ordinals)
            offsets = np.append(0, np.cumsum(kept))[offsets]
            ordinals, frequencies = ordinals[kept], frequencies[kept]
        added = sorted(term for term in self._holders if base.row(term) is None)
        inserted = np.array([bisect_left(base.terms, term) for term in added], dtype=np.int64)
        terms, start = [], 0
        for position, term in zip(inserted.tolist(), added):
            terms += base.terms[start:position]
            terms.append(term)
            start = position
        terms += base.terms[start:]
        offsets = spliced(offsets, inserted, offsets[inserted])
        # A term's base row moves up by the new terms sorting before it; a
        # new term is marked -1 - its rank among them.
        rank_of = {term: -1 - rank for rank, term in enumerate(added)}
        cells = np.array(
            [
                (rank_of[term] if term in rank_of else base.row(term), ordinal, count)
                for doc_id, ordinal in zip(self._written, epoch.written_ordinals().tolist())
                for term, count in self._written[doc_id].items()
            ],
            dtype=np.int64,
        ).reshape(-1, 3)
        rows = cells[:, 0]
        new = rows < 0
        rows[~new] += np.searchsorted(inserted, rows[~new], side="right")
        rows[new] = inserted[-1 - rows[new]] + (-1 - rows[new])
        most = max(int(frequencies.max()) if frequencies.size else 0, int(cells[:, 2].max(initial=0)))
        offsets, (ordinals, frequencies) = csr_merge(
            offsets, (epoch.shift(ordinals), frequencies), (len(documents.doc_ids), most + 1),
            rows, cells[:, 1], cells[:, 2],
        )
        present = np.flatnonzero(np.diff(offsets))
        if present.size < len(terms):
            terms = [terms[row] for row in present.tolist()]
            offsets = np.append(offsets[present], offsets[-1])
        lengths = spliced(base.lengths, epoch.gaps, np.zeros(epoch.gaps.size, dtype=np.int64))
        lengths = lengths.copy() if lengths is base.lengths else lengths
        lengths[epoch.written_ordinals()] = self._written_lengths
        return PostingColumns(documents, terms, offsets, ordinals, frequencies, lengths)

    # ------------------------------------------------------------------ #
    # Per-term reads
    # ------------------------------------------------------------------ #
    def postings(self, term: str) -> ColumnarPostings | None:
        """``term``'s postings in epoch ordinals, or ``None`` when no document holds it.

        Built on the first request of the epoch and memoised; an absent
        term is not memoised (one lookup either way, and a memo entry per
        term a query names would grow with every distinct search).
        """
        postings = self._columnar.get(term)
        if postings is not None:
            return postings
        documents = self.documents
        ordinals, frequencies = self.base.columns(term) or (_NONE, _NONE)
        if ordinals.size and documents.rewritten.size:
            kept = ~isin_sorted(documents.rewritten, ordinals)
            ordinals, frequencies = ordinals[kept], frequencies[kept]
        ordinals = documents.shift(ordinals)
        held = self._holders.get(term)
        if held:
            ordinals = np.concatenate((ordinals, documents.ordinal_of.array(held, len(held))))
            frequencies = np.concatenate(
                (frequencies, np.fromiter(held.values(), dtype=np.int64, count=len(held)))
            )
            order = np.argsort(ordinals, kind="stable")
            ordinals, frequencies = ordinals[order], frequencies[order]
        if not ordinals.size:
            return None
        postings = self._columnar[term] = ColumnarPostings(
            ordinals, frequencies.astype(np.float64)
        )
        return postings

    def term_counts(self, term: str) -> tuple[int, int, int]:
        """``(collection frequency, document frequency, max tf)`` of ``term``.

        The base row's memoised counts, less the rows of the rewritten
        documents that held it, plus the delta documents holding it; a
        rewritten document that held the base's max tf makes the rest of
        the row recount it.
        """
        counts = self._counts.get(term)
        if counts is not None:
            return counts
        collection, document, top = self.base.term_counts(term)
        rewritten = self.documents.rewritten
        if document and rewritten.size:
            ordinals, frequencies = self.base.columns(term)  # type: ignore[misc]
            gone = isin_sorted(rewritten, ordinals)
            if gone.any():
                lost, kept = frequencies[gone], frequencies[~gone]
                collection -= int(lost.sum())
                document -= lost.size
                if int(lost.max()) == top:
                    top = int(kept.max()) if kept.size else 0
        held = self._holders.get(term)
        if held:
            collection += sum(held.values())
            document += len(held)
            top = max(top, max(held.values()))
        counts = self._counts[term] = (collection, document, top)
        return counts

    def collection_probability(self, term: str) -> float:
        """Maximum-likelihood ``p(term | field collection)``, memoised per epoch."""
        probability = self._probabilities.get(term)
        if probability is None:
            total = self.total_terms
            probability = self.term_counts(term)[0] / total if total else 0.0
            self._probabilities[term] = probability
        return probability

    def max_frequency(self, term: str) -> int:
        """Largest term frequency of ``term`` in any single document."""
        return self.term_counts(term)[2]

    def documents_containing(self, term: str) -> list[str]:
        """Document identifiers containing ``term``, ascending."""
        postings = self.postings(term)
        if postings is None:
            return []
        doc_ids = self.documents.doc_ids
        return [doc_ids[ordinal] for ordinal in postings.ordinals.tolist()]

    # ------------------------------------------------------------------ #
    # Per-document reads
    # ------------------------------------------------------------------ #
    def term_frequency(self, term: str, doc_id: str) -> int:
        """Occurrences of ``term`` in ``doc_id``."""
        counts = self._written.get(doc_id)
        if counts is not None:
            return counts.get(term, 0)
        row = self.base.columns(term)
        ordinal = self.base.documents.ordinal_of().get(doc_id)
        if row is None or ordinal is None:
            return 0
        ordinals, frequencies = row
        at = int(np.searchsorted(ordinals, ordinal))
        return int(frequencies[at]) if at < ordinals.size and ordinals[at] == ordinal else 0

    def document_length(self, doc_id: str) -> int:
        """Number of terms indexed for ``doc_id`` (0 when unknown)."""
        counts = self._written.get(doc_id)
        if counts is not None:
            return sum(counts.values())
        return self.base.length_of(doc_id)

    def lengths(self) -> np.ndarray:
        """Every document's field length, by epoch ordinal (float64; read only).

        The base column with a slot opened before base ordinal ``g`` for
        each gap ``g``, then the written documents' lengths set.
        """
        lengths = self._lengths
        if lengths is None:
            documents = self.documents
            lengths = self.base.lengths.astype(np.float64)
            if documents.gaps.size:
                lengths = np.insert(lengths, documents.gaps, 0.0)
            if self._written_lengths.size:
                lengths[documents.written_ordinals()] = self._written_lengths
            self._lengths = lengths
        return lengths

    def _length_extremes(self) -> tuple[int, int]:
        extremes = self._extremes
        if extremes is None:
            lengths = self.lengths()
            extremes = self._extremes = (
                (int(lengths.min()), int(lengths.max())) if lengths.size else (0, 0)
            )
        return extremes

    @property
    def min_length(self) -> int:
        """Shortest field length of any document (0 for an empty collection)."""
        return self._length_extremes()[0]

    @property
    def max_length(self) -> int:
        """Longest field length of any document (0 for an empty collection)."""
        return self._length_extremes()[1]

    @property
    def num_documents(self) -> int:
        """Number of indexed documents."""
        return len(self.documents.doc_ids)

    @property
    def average_document_length(self) -> float:
        """Average indexed length per document."""
        num_documents = self.num_documents
        return self.total_terms / num_documents if num_documents else 0.0

    def __contains__(self, term: str) -> bool:
        return self.term_counts(term)[1] > 0
