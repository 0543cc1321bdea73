"""Single-field inverted index.

Maps terms to posting lists and keeps per-document lengths.  The fielded
index of :mod:`repro.index.fielded_index` composes one of these per
retrieval field.

A field serves a posting CSR (:class:`PostingColumns`, one per field of
an index, over the documents of one :class:`DocumentColumns`), whether
the CSR was sorted out of a build's token rows
(:meth:`PostingColumns.from_tokens`) or decoded from a saved index.
Such a field answers from the arrays: a term's row is found by
bisecting the sorted term table (and memoised), its counts are reduced
from that row when a query names the term, and it becomes a
:class:`PostingList` only when a caller asks for the list; the
``doc_id -> length`` and whole-field count maps are built only when a
caller asks for a whole map.  A write makes a successor field whose
changed terms are posting lists over the same CSR
(:meth:`InvertedIndex.with_added_document`).

:meth:`InvertedIndex.add_document` builds a field term by term into
posting lists.  No build path uses it: it is the reference the sorted
build is checked against.
"""

from __future__ import annotations

import logging
import os
import sys
import threading
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Mapping
from itertools import compress

import numpy as np

from ..utils.ordinals import OrdinalMap
from .postings import PostingList
from .statistics import FieldStatistics

_LOG = logging.getLogger("repro")


def _caller() -> str:
    """The name of the nearest calling function outside the index package."""
    package = os.path.dirname(__file__)
    frame = sys._getframe(1)
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == package:
        frame = frame.f_back
    return frame.f_code.co_name if frame is not None else "?"


class DocumentColumns:
    """The documents of a stored index: ids in ordinal order.

    Ordinals are positions in ``doc_ids``, which are strictly ascending,
    so ordinal order is doc-id order.  Shared, read only, by every field
    of an adopted index and by its copy-on-write successors.  A loaded
    index whose documents are the graph's entities is given the entity
    map of the system's one dictionary; any other builds its own on
    first use.
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
    """One field's stored postings: a CSR over document ordinals.

    ``terms`` are strictly ascending; row ``r`` of the CSR is
    ``ordinals[offsets[r]:offsets[r + 1]]`` (ascending) with the parallel
    ``frequencies`` (int64, positive), and ``lengths`` is the field
    length of every document ordinal.  Immutable; shared by an adopted
    index and its copy-on-write successors, which is why it also counts
    how many of its rows have been decoded into posting lists.
    """

    __slots__ = (
        "documents", "terms", "offsets", "ordinals", "frequencies", "lengths",
        "total_terms", "decoded", "_is_decoded", "_lock", "_rows", "_counts",
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
        #: Distinct rows turned into posting lists so far.
        self.decoded = 0
        self._is_decoded = bytearray(len(terms))
        self._lock = threading.Lock()
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
        ``bincount`` cuts the rows and counts the field lengths.  Equal,
        array for array, to the rows of a field built by
        :meth:`InvertedIndex.add_document` from the same tokens.
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

    def decode(self, field: str, term: str) -> PostingList | None:
        """One term's row as a fresh :class:`PostingList` (``None`` when absent).

        When this decodes the last row nobody had asked for, the field
        is now materialised wholesale, and one ``repro`` record names
        the caller that finished it.
        """
        row = self.row(term)
        if row is None:
            return None
        start, end = int(self.offsets[row]), int(self.offsets[row + 1])
        doc_ids = self.documents.doc_ids
        ids = [doc_ids[ordinal] for ordinal in self.ordinals[start:end].tolist()]
        postings = PostingList(ids, dict(zip(ids, self.frequencies[start:end].tolist())))
        if not self._is_decoded[row]:
            with self._lock:  # concurrent readers may decode the same row
                first = not self._is_decoded[row]
                self._is_decoded[row] = 1
                self.decoded += first
                complete = first and self.decoded == len(self.terms)
            if complete:
                _LOG.info(
                    "index field %r: all %d stored posting lists decoded, the last by %s",
                    field, len(self.terms), _caller(),
                )
        return postings

    def term_counts(self, term: str) -> tuple[int, int, int]:
        """``(collection frequency, document frequency, max tf)`` of one term.

        Reduced from the term's row once, then memoised; ``(0, 0, 0)``
        when it is not stored.
        """
        counts = self._counts.get(term)
        if counts is None:
            row = self.row(term)
            if row is None:
                return 0, 0, 0
            start, end = int(self.offsets[row]), int(self.offsets[row + 1])
            frequencies = self.frequencies[start:end]
            counts = self._counts[term] = (
                int(frequencies.sum()), end - start, int(frequencies.max())
            )
        return counts

    def length_of(self, doc_id: str) -> int:
        ordinal = self.documents.ordinal_of().get(doc_id)
        return 0 if ordinal is None else int(self.lengths[ordinal])

    def length_map(self) -> dict[str, int]:
        """A fresh ``doc_id -> field length`` map over every document.

        For the scalar scorers and writes; a search reads ``lengths``.
        """
        return dict(zip(self.documents.doc_ids, self.lengths.tolist()))

    def term_statistics(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Fresh ``term ->`` collection frequency, document frequency and max tf maps.

        The whole-field form of :meth:`term_counts`, for a caller that
        needs every term: the full statistics scan and a write deriving
        its statistics from these.
        """
        if not self.terms:
            return {}, {}, {}
        starts = self.offsets[:-1]
        terms = self.terms
        return (
            dict(zip(terms, np.add.reduceat(self.frequencies, starts).tolist())),
            dict(zip(terms, np.diff(self.offsets).tolist())),
            dict(zip(terms, np.maximum.reduceat(self.frequencies, starts).tolist())),
        )


class InvertedIndex:
    """A term -> postings map for a single field.

    On a field that serves a :class:`PostingColumns` CSR, ``_postings``
    holds the lists decoded so far and the ones writes copied and
    rewrote; an entry there wins over the stored row of the same term,
    and an *empty* entry is the tombstone of a stored term that a
    re-indexed document took away (it reads as absent).  A field built
    by :meth:`add_document` (the reference) has no CSR and holds every
    list there.  ``_doc_lengths`` is ``None`` while the CSR's length
    column still answers for every document.
    """

    def __init__(self, name: str = "field", columns: PostingColumns | None = None) -> None:
        self.name = name
        self._columns = columns
        self._postings: dict[str, PostingList] = {}
        self._doc_lengths: dict[str, int] | None = None if columns is not None else {}
        self._total_terms = columns.total_terms if columns is not None else 0

    @property
    def columns(self) -> PostingColumns | None:
        """The CSR this field serves (``None`` for a reference field built by
        :meth:`add_document`)."""
        return self._columns

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #
    def add_document(self, doc_id: str, terms: Iterable[str]) -> None:
        """Index (or extend) a document given its analyzed terms.

        The reference build, term by term into posting lists: the sorted
        build (:meth:`PostingColumns.from_tokens`) is checked against it.
        """
        counts = Counter(terms)
        added = sum(counts.values())
        lengths = self.document_lengths()
        if added == 0 and doc_id not in lengths:
            # Register empty documents so that document counts are correct.
            lengths.setdefault(doc_id, 0)
            return
        for term, count in counts.items():
            posting_list = self.get_postings(term)
            if posting_list is None:
                posting_list = PostingList()
                self._postings[term] = posting_list
            posting_list.add(doc_id, count)
        lengths[doc_id] = lengths.get(doc_id, 0) + added
        self._total_terms += added

    def with_added_document(
        self,
        doc_id: str,
        terms: Iterable[str],
        previous: Mapping[str, int] | None = None,
    ) -> "InvertedIndex":
        """A new index with ``doc_id`` indexed as ``terms``; this one stays untouched.

        The copy-on-write sibling of :meth:`add_document` behind snapshot-
        isolated serving: the term map and length array are shallow-copied
        (posting lists are shared by reference, an adopted field's stored
        CSR too) and only the posting lists of the terms the write changes
        are copied before mutation — so every structure a concurrent
        reader may already hold keeps its exact pre-mutation contents, at
        O(documents + affected postings) cost.  An id that is already
        indexed is *replaced*: ``previous`` is its old term counts
        (:meth:`document_counts` when not given).
        """
        counts = Counter(terms)
        if previous is None:
            previous = self.document_counts(doc_id)
        clone = InvertedIndex(self.name, self._columns)
        clone._postings = dict(self._postings)
        clone._doc_lengths = dict(self.document_lengths())
        stored = self._columns
        for term in previous.keys() - counts.keys():
            remaining = self.get_postings(term).copy()  # type: ignore[union-attr]
            remaining.remove(doc_id)
            if remaining or (stored is not None and stored.row(term) is not None):
                clone._postings[term] = remaining  # empty: the stored row's tombstone
            else:
                del clone._postings[term]
        for term, count in counts.items():
            if previous.get(term) == count:
                continue
            existing = self.get_postings(term)
            posting_list = PostingList() if existing is None else existing.copy()
            posting_list.put(doc_id, count)
            clone._postings[term] = posting_list
        added = sum(counts.values())
        clone._doc_lengths[doc_id] = added
        clone._total_terms = self._total_terms + added - sum(previous.values())
        return clone

    def document_counts(self, doc_id: str) -> dict[str, int]:
        """The term counts ``doc_id`` is indexed with (empty when it is not).

        One pass over the field's lists (and, on an adopted field, one
        array comparison over its stored ordinals).
        """
        if not self.document_length(doc_id):
            return {}
        lists = dict(self._postings)
        counts = {term: postings.frequency(doc_id) for term, postings in lists.items()}
        columns = self._columns
        ordinal = None if columns is None else columns.documents.ordinal_of().get(doc_id)
        if columns is not None and ordinal is not None:
            positions = np.flatnonzero(columns.ordinals == ordinal)
            rows = np.searchsorted(columns.offsets, positions, side="right") - 1
            for row, count in zip(rows.tolist(), columns.frequencies[positions].tolist()):
                term = columns.terms[row]
                if term not in lists:  # a list in ``_postings`` wins over the stored row
                    counts[term] = count
        return {term: count for term, count in counts.items() if count}

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def postings(self, term: str) -> PostingList:
        """Posting list for a term (empty list when the term is unknown)."""
        postings = self.get_postings(term)
        return PostingList() if postings is None else postings

    def get_postings(self, term: str) -> PostingList | None:
        """Posting list for a term, or ``None`` when the term is unknown.

        Unlike :meth:`postings` this never allocates an empty list, which
        matters on the scoring hot path.  On an adopted field the first
        request for a term decodes its stored row, once.
        """
        postings = self._postings.get(term)
        if postings is None and self._columns is not None:
            postings = self._columns.decode(self.name, term)
            if postings is not None:
                self._postings[term] = postings
        return postings if postings else None  # a tombstone reads as absent

    def document_lengths(self) -> dict[str, int]:
        """The ``doc_id -> field length`` map.

        Returned by reference for the scoring hot path; callers must treat
        it as read-only.  An adopted field builds it on the first call.
        """
        lengths = self._doc_lengths
        if lengths is None:
            lengths = self._columns.length_map()  # type: ignore[union-attr]
            self._doc_lengths = lengths
        return lengths

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Occurrences of ``term`` in ``doc_id``."""
        return self.postings(term).frequency(doc_id)

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return self.postings(term).document_frequency()

    def collection_frequency(self, term: str) -> int:
        """Total occurrences of ``term`` across the collection."""
        return self.postings(term).collection_frequency()

    def collection_probability(self, term: str) -> float:
        """Maximum-likelihood collection model probability of ``term``."""
        if self._total_terms == 0:
            return 0.0
        return self.collection_frequency(term) / self._total_terms

    def document_length(self, doc_id: str) -> int:
        """Number of terms indexed for ``doc_id`` (0 when unknown)."""
        lengths = self._doc_lengths
        if lengths is None:
            return self._columns.length_of(doc_id)  # type: ignore[union-attr]
        return lengths.get(doc_id, 0)

    def documents(self) -> set[str]:
        """All indexed document identifiers."""
        if self._doc_lengths is None:
            return set(self._columns.documents.doc_ids)  # type: ignore[union-attr]
        return set(self._doc_lengths)

    def documents_containing(self, term: str) -> list[str]:
        """Document identifiers containing ``term``."""
        return self.postings(term).doc_ids()

    def documents_containing_any(self, terms: Iterable[str]) -> set[str]:
        """Documents containing at least one of ``terms``."""
        result: set[str] = set()
        for term in terms:
            result.update(self.documents_containing(term))
        return result

    def vocabulary(self) -> set[str]:
        """All indexed terms."""
        lists = dict(self._postings)
        vocabulary = {term for term, postings in lists.items() if postings}
        if self._columns is not None:
            vocabulary.update(term for term in self._columns.terms if term not in lists)
        return vocabulary

    def statistics(self) -> FieldStatistics:
        """This field's collection statistics, computed afresh: the full scan.

        An adopted field reads the per-term counts off its CSR with three
        array reductions; lists in ``_postings`` (decoded, or written
        since) are counted from the lists, which hold the same or newer
        counts.  An adopted field nobody has written to answers the same
        per term from its rows (:meth:`FieldStatistics.from_columns`),
        which is what a search reads.
        """
        if self._doc_lengths is None:
            lengths = self._columns.lengths  # type: ignore[union-attr]
            shortest, longest = (
                (int(lengths.min()), int(lengths.max())) if lengths.size else (0, 0)
            )
        elif self._doc_lengths:
            shortest = min(self._doc_lengths.values())
            longest = max(self._doc_lengths.values())
        else:
            shortest = longest = 0
        counts = ({}, {}, {}) if self._columns is None else self._columns.term_statistics()
        collection, document, maximum = counts
        # A copy first: concurrent readers may be decoding into the map.
        for term, postings in list(self._postings.items()):
            if not postings:  # a tombstone: the stored row is gone
                for mapping in counts:
                    mapping.pop(term, None)
                continue
            frequencies = postings.frequencies()
            collection[term] = sum(frequencies.values())
            document[term] = len(frequencies)
            maximum[term] = postings.max_frequency()
        return FieldStatistics(
            self.name, self._total_terms, self.num_documents, shortest, longest, *counts
        )

    def posting_csr(
        self, ordinal_of: OrdinalMap
    ) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        """This field as ``(terms, offsets, ordinals, frequencies)`` over ``ordinal_of``.

        ``ordinal_of`` numbers every document of the index in doc-id
        order; terms come out ascending.  Decodes nothing: an adopted
        field's stored rows are renumbered as arrays, and only the lists
        in ``_postings`` are read as lists.
        """
        shadowing = dict(self._postings)
        lists = {term: postings for term, postings in shadowing.items() if postings}
        ids: list[str] = []
        tfs: list[int] = []
        for term in lists:
            frequencies = lists[term].frequencies()
            doc_ids = lists[term].doc_ids()
            ids.extend(doc_ids)
            tfs.extend(map(frequencies.__getitem__, doc_ids))
        terms = list(lists)
        sizes = [np.fromiter(map(len, lists.values()), dtype=np.int64, count=len(lists))]
        ordinals = [ordinal_of.array(ids, len(ids))]
        frequencies = [np.array(tfs, dtype=np.int64)]
        columns = self._columns
        if columns is not None:
            keep = np.fromiter(
                (term not in shadowing for term in columns.terms),
                dtype=bool,
                count=len(columns.terms),
            )
            stored_sizes = np.diff(columns.offsets)
            rows = np.repeat(keep, stored_sizes)
            renumber = ordinal_of.array(columns.documents.doc_ids, len(columns.documents.doc_ids))
            terms.extend(compress(columns.terms, keep))
            sizes.append(stored_sizes[keep])
            ordinals.append(renumber[columns.ordinals[rows]])
            frequencies.append(columns.frequencies[rows])
        sizes_all = np.concatenate(sizes)
        order = np.array(sorted(range(len(terms)), key=terms.__getitem__), dtype=np.int64)
        starts = np.cumsum(sizes_all) - sizes_all
        sorted_sizes = sizes_all[order]
        offsets = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(sorted_sizes, out=offsets[1:])
        gather = np.repeat(starts[order] - offsets[:-1], sorted_sizes) + np.arange(
            offsets[-1], dtype=np.int64
        )
        return (
            [terms[row] for row in order.tolist()],
            offsets,
            np.concatenate(ordinals)[gather],
            np.concatenate(frequencies)[gather],
        )

    @property
    def total_terms(self) -> int:
        """Number of term occurrences in the whole field collection."""
        return self._total_terms

    @property
    def num_documents(self) -> int:
        """Number of indexed documents."""
        if self._doc_lengths is None:
            return len(self._columns.documents.doc_ids)  # type: ignore[union-attr]
        return len(self._doc_lengths)

    @property
    def average_document_length(self) -> float:
        """Average indexed length per document."""
        num_documents = self.num_documents
        if not num_documents:
            return 0.0
        return self._total_terms / num_documents

    def __contains__(self, term: str) -> bool:
        postings = self._postings.get(term)
        if postings is not None:
            return bool(postings)
        return self._columns is not None and self._columns.row(term) is not None

    def __len__(self) -> int:
        return len(self.vocabulary())
