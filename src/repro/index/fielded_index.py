"""Fielded inverted index over multi-field entity documents.

This is the index the search engine of §2.2 runs against: every entity is a
structured document with the five fields of Table 1, and every field has its
own inverted index, document lengths and collection statistics.

A built index and a loaded one are the same object: one posting CSR per
field over one :class:`DocumentColumns`, handed to :meth:`FieldedIndex.adopt`
(by the search engine's build, which sorts them out of the documents'
token rows, or by the storage layer, which decodes them from a saved
segment).  Writes derive copy-on-write successors from it
(:meth:`FieldedIndex.with_added_document`).  :meth:`FieldedIndex.add_document`
is the term-by-term reference the sorted build is checked against.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Sequence
from itertools import count

from ..exceptions import FieldNotFoundError
from .inverted_index import DocumentColumns, InvertedIndex, PostingColumns
from .statistics import CollectionStatistics, FieldStatistics

#: Process-wide generation counter: every index instance (including
#: copy-on-write successors) gets a distinct uid, so epoch-keyed caches
#: can tell two index *instances* apart even when their mutation counters
#: happen to coincide (a rebuild recounts from the document count).
_GENERATIONS = count()


class _FieldIndexes(dict):
    """``field → InvertedIndex``; a missing field is a schema error."""

    def __missing__(self, field: str) -> InvertedIndex:
        raise FieldNotFoundError(field)


def next_index_uid() -> int:
    """Allocate one process-unique index uid.

    Shared by every uid-bearing index family (the fielded search index
    here, the semantic feature index on the recommendation side), so no
    two live indexes share a ``(uid, epoch)`` key.
    """
    return next(_GENERATIONS)


class FieldedIndex:
    """A collection of per-field inverted indexes sharing a document space."""

    def __init__(self, fields: Sequence[str]) -> None:
        if not fields:
            raise ValueError("a fielded index needs at least one field")
        self._fields: tuple[str, ...] = tuple(fields)
        self._indexes = _FieldIndexes(
            (field, InvertedIndex(name=field)) for field in self._fields
        )
        #: The indexed ids: a set, or an adopted index's stored map (read only).
        self._documents: Collection[str] = set()
        #: Mutation counter: bumped on every document addition so cached
        #: statistics / query results can be invalidated.
        self._epoch = 0
        self._uid = next_index_uid()
        self._stored: DocumentColumns | None = None
        self._statistics_cache: tuple[int, CollectionStatistics] | None = None

    @property
    def fields(self) -> tuple[str, ...]:
        """The field schema of this index."""
        return self._fields

    @property
    def epoch(self) -> int:
        """A counter incremented on every mutation of the index."""
        return self._epoch

    @property
    def uid(self) -> int:
        """Process-unique instance id (distinct across rebuilds/snapshots).

        ``(uid, epoch)`` is the collision-free cache key for anything
        derived from the index's contents: the epoch alone can repeat
        across rebuilt or copy-on-write instances.
        """
        return self._uid

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #
    def add_document(self, doc_id: str, field_terms: Mapping[str, Iterable[str]]) -> None:
        """Index a document given its analyzed terms per field, in place.

        The reference build: no serving path calls it.  Fields missing
        from ``field_terms`` are indexed as empty; unknown field names
        raise :class:`FieldNotFoundError`.
        """
        for field in field_terms:
            if field not in self._indexes:
                raise FieldNotFoundError(field)
        if not isinstance(self._documents, set):
            self._documents = set(self._documents)
        self._documents.add(doc_id)
        for field in self._fields:
            terms = list(field_terms.get(field, ()))
            self._indexes[field].add_document(doc_id, terms)
        self._epoch += 1
        self._stored = None
        self._statistics_cache = None

    def adopt(self, documents: DocumentColumns, columns: Mapping[str, PostingColumns]) -> None:
        """Serve one posting CSR per field over ``documents``.

        The CSRs come from a build's sort or a saved segment, and the
        two are equal for equal documents.  Nothing is decoded here —
        each field answers from its CSR and builds a posting list or
        length map only when a caller asks for it.  The result equals the index that stored the columns: same
        documents, postings, lengths and statistics, and the same epoch
        (one bump per document).  Only valid on an empty index.
        """
        if self._documents:
            raise ValueError("adopt requires an empty index")
        self._documents = documents.ordinal_of()
        self._indexes = _FieldIndexes(
            (field, InvertedIndex(field, columns[field])) for field in self._fields
        )
        self._epoch = len(documents.doc_ids)
        self._stored = documents
        self._statistics_cache = None

    def stored_documents(self) -> DocumentColumns | None:
        """The documents of the CSRs this index still answers from.

        Set on a built or loaded index (both :meth:`adopt` their CSRs);
        ``None`` for any index written since, whose fields then hold
        postings the CSRs do not, and for a reference index made by
        :meth:`add_document`.  While it is set, every field's
        :attr:`InvertedIndex.columns` is exactly that field's postings.
        """
        return self._stored

    def decoded_posting_lists(self) -> int:
        """How many stored posting lists have been decoded into objects."""
        return sum(
            index.columns.decoded for index in self._indexes.values() if index.columns is not None
        )

    def with_added_document(
        self, doc_id: str, field_terms: Mapping[str, Iterable[str]]
    ) -> "FieldedIndex":
        """A new index with the document written; this instance is untouched.

        This is the snapshot-isolation mutation path: engines swap the
        returned index in atomically while in-flight queries keep scoring
        against the pre-mutation instance (whose postings, lengths and
        memoised statistics can no longer change).  Per-field indexes are
        copied copy-on-write (see :meth:`InvertedIndex.with_added_document`),
        the epoch continues from this instance's counter, and the clone
        gets a fresh :attr:`uid`.  An id that is already indexed is
        replaced, not added to.

        A write pays for what it wrote: when this epoch's statistics exist
        the successor's are derived from them and the document's old and
        new term counts, and when this epoch's columnar view exists the
        successor's is derived from it (:meth:`ColumnarIndex.successor`) —
        O(documents) array and list copies plus O(the document's terms).
        """
        for field in field_terms:
            if field not in self._indexes:
                raise FieldNotFoundError(field)
        counts = {field: Counter(field_terms.get(field, ())) for field in self._fields}
        replaced = doc_id in self._documents
        previous = {
            field: self._indexes[field].document_counts(doc_id) if replaced else {}
            for field in self._fields
        }
        clone = FieldedIndex(self._fields)
        clone._indexes = _FieldIndexes(
            (
                field,
                self._indexes[field].with_added_document(doc_id, counts[field], previous[field]),
            )
            for field in self._fields
        )
        clone._documents = set(self._documents)
        clone._documents.add(doc_id)
        clone._epoch = self._epoch + 1
        cached = self._statistics_cache
        if cached is not None and cached[0] == self._epoch:
            statistics = cached[1].with_added_document(
                counts, previous if replaced else None, clone._indexes
            )
            view = cached[1].columnar_view
            if view is not None:
                statistics.columnar_view = view.successor(clone, doc_id, counts)
            clone._statistics_cache = (clone._epoch, statistics)
        return clone

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def field_index(self, field: str) -> InvertedIndex:
        """The single-field index for ``field``."""
        return self._indexes[field]

    def field_indexes(self) -> Mapping[str, InvertedIndex]:
        """The per-field indexes in schema order (read-only).

        What per-epoch memos (statistics, columnar view) keep instead
        of the index itself: the index owns those memos, so a reference
        back to it would be a cycle, and a superseded snapshot would then
        linger until the cyclic collector happens to run.  Unknown fields
        raise :class:`FieldNotFoundError`, as :meth:`field_index` does.
        """
        return self._indexes

    def term_frequency(self, field: str, term: str, doc_id: str) -> int:
        return self._indexes[field].term_frequency(term, doc_id)

    def document_length(self, field: str, doc_id: str) -> int:
        return self._indexes[field].document_length(doc_id)

    def collection_probability(self, field: str, term: str) -> float:
        """``p(term | field collection)``, memoised on the epoch's statistics.

        The same int / int division :meth:`InvertedIndex.collection_probability`
        makes, without summing (or, on an adopted index, decoding) the
        posting list on every call.
        """
        return self.statistics().collection_probability(field, term)

    def documents(self) -> set[str]:
        """All indexed document identifiers."""
        return set(self._documents)

    @property
    def num_documents(self) -> int:
        return len(self._documents)

    def candidate_documents(self, terms: Iterable[str]) -> set[str]:
        """Documents containing any query term in any field.

        This is the candidate-generation step of the retrieval pipeline:
        scoring is then restricted to these documents instead of the whole
        collection.
        """
        terms = list(terms)
        result: set[str] = set()
        for field in self._fields:
            result.update(self._indexes[field].documents_containing_any(terms))
        return result

    def statistics(self) -> CollectionStatistics:
        """Collection statistics for all fields, cached per index epoch.

        The returned object (including its memoised per-term components) is
        reused until the next :meth:`add_document`; callers must not mutate
        its raw counts.  An index that still answers from the CSRs it
        adopted reads each field's per-term counts off the stored rows
        when a query names the term (:meth:`FieldStatistics.from_columns`);
        any other scans its fields (:meth:`InvertedIndex.statistics`).
        """
        cached = self._statistics_cache
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        if self._stored is not None:  # per term, off the stored rows
            fields = {
                field: FieldStatistics.from_columns(field, self._indexes[field].columns)
                for field in self._fields
            }
        else:  # the full scan
            fields = {field: self._indexes[field].statistics() for field in self._fields}
        stats = CollectionStatistics(num_documents=len(self._documents), fields=fields)
        self._statistics_cache = (self._epoch, stats)
        return stats

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)
