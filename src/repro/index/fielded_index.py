"""Fielded inverted index over multi-field entity documents.

This is the index the search engine of §2.2 runs against: every entity is a
structured document with the five fields of Table 1, and every field has its
own postings, document lengths and collection statistics.

An index epoch is one posting CSR per field over one
:class:`DocumentColumns` (the *base*: sorted out of the documents' token
rows by the search engine's build, or decoded from a saved segment by the
storage layer — equal for equal documents), plus the documents written
since (:meth:`FieldedIndex.with_added_document`, copy-on-write).  Once the
written documents number more than :data:`MERGE_FRACTION` of the base's,
the write folds them into a new base.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import count

import numpy as np

from ..exceptions import FieldNotFoundError
from ..utils.ordinals import OrdinalMap
from .columnar import ColumnarPostings
from .inverted_index import DocumentColumns, EpochDocuments, InvertedIndex, PostingColumns

#: A write that leaves more documents written since the base than this
#: fraction of the base's documents merges them into a new base.
MERGE_FRACTION = 0.125

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
    """A collection of per-field indexes sharing one document space.

    ``FieldedIndex(fields, documents, columns)`` serves one base posting
    CSR per field over ``documents`` (a build's sort or a saved
    segment); without them the index is empty.  Its epoch counts one
    per document, as if each had been written.
    """

    def __init__(
        self,
        fields: Sequence[str],
        documents: DocumentColumns | None = None,
        columns: Mapping[str, PostingColumns] | None = None,
    ) -> None:
        if not fields:
            raise ValueError("a fielded index needs at least one field")
        self._fields: tuple[str, ...] = tuple(fields)
        if documents is None:
            documents = DocumentColumns([])
        if columns is None:
            columns = {field: PostingColumns.empty(documents) for field in self._fields}
        epoch = EpochDocuments(documents)
        self._epoch_documents = epoch
        self._indexes = _FieldIndexes(
            (field, InvertedIndex(field, columns[field], epoch)) for field in self._fields
        )
        #: Mutation counter: bumped on every document write so cached
        #: query results can be invalidated.
        self._epoch = len(documents.doc_ids)
        self._uid = next_index_uid()

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
    # Writes
    # ------------------------------------------------------------------ #
    def with_added_document(
        self, doc_id: str, field_terms: Mapping[str, Iterable[str]]
    ) -> "FieldedIndex":
        """A new index with the document written; this instance is untouched.

        This is the snapshot-isolation mutation path: engines swap the
        returned index in atomically while in-flight queries keep scoring
        against the pre-mutation instance.  An id that is already indexed
        is replaced, not added to; fields missing from ``field_terms``
        are written empty, and unknown field names raise
        :class:`FieldNotFoundError`.  Each field copies its delta
        (:meth:`InvertedIndex.with_written`); when the written documents
        pass :data:`MERGE_FRACTION` of the base, every field is merged
        into a new base over the epoch's ids.
        """
        for field in field_terms:
            if field not in self._indexes:
                raise FieldNotFoundError(field)
        documents = self._epoch_documents.with_written(doc_id)
        fields = {
            field: self._indexes[field].with_written(
                documents, doc_id, Counter(field_terms.get(field, ()))
            )
            for field in self._fields
        }
        if documents.num_written > MERGE_FRACTION * len(documents.base.doc_ids):
            base = DocumentColumns(documents.doc_ids, documents.ordinal_of)
            documents = EpochDocuments(base)
            fields = {
                field: InvertedIndex(field, index.merged(base), documents)
                for field, index in fields.items()
            }
        clone = FieldedIndex.__new__(FieldedIndex)
        clone._fields = self._fields
        clone._epoch_documents = documents
        clone._indexes = _FieldIndexes(fields)
        clone._epoch = self._epoch + 1
        clone._uid = next_index_uid()
        return clone

    def stored_columns(self) -> tuple[DocumentColumns, dict[str, PostingColumns]]:
        """``(documents, field → CSR)``: this epoch with its delta merged.

        What a save writes.  The base itself when nothing was written
        since it; this index is unchanged either way.
        """
        documents = self._epoch_documents
        if documents.num_written:
            base = DocumentColumns(documents.doc_ids, documents.ordinal_of)
        else:
            base = documents.base
        return base, {field: index.merged(base) for field, index in self._indexes.items()}

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def field_index(self, field: str) -> InvertedIndex:
        """The single-field index for ``field``."""
        return self._indexes[field]

    def term_frequency(self, field: str, term: str, doc_id: str) -> int:
        return self._indexes[field].term_frequency(term, doc_id)

    def document_length(self, field: str, doc_id: str) -> int:
        return self._indexes[field].document_length(doc_id)

    def collection_probability(self, field: str, term: str) -> float:
        """``p(term | field collection)``, memoised per epoch."""
        return self._indexes[field].collection_probability(term)

    @property
    def doc_ids(self) -> list[str]:
        """All document ids in ordinal (= sorted) order; do not mutate."""
        return self._epoch_documents.doc_ids

    @property
    def ordinal_of(self) -> OrdinalMap:
        """``doc_id -> ordinal`` for every document (read only)."""
        return self._epoch_documents.ordinal_of

    @property
    def num_documents(self) -> int:
        return len(self._epoch_documents.doc_ids)

    def ids_of(self, ordinals: np.ndarray) -> list[str]:
        """Document ids of an ordinal array (order preserved)."""
        doc_ids = self._epoch_documents.doc_ids
        return [doc_ids[ordinal] for ordinal in ordinals.tolist()]

    def postings(self, field: str, term: str) -> ColumnarPostings | None:
        """The (field, term) postings in ordinal form, or ``None`` when absent."""
        return self._indexes[field].postings(term)

    def field_lengths(self, field: str) -> np.ndarray:
        """One field's document lengths indexed by ordinal (float64)."""
        return self._indexes[field].lengths()

    def candidate_documents(self, terms: Iterable[str]) -> set[str]:
        """Documents containing any query term in any field.

        This is the candidate-generation step of the retrieval pipeline:
        scoring is then restricted to these documents instead of the whole
        collection.
        """
        terms = list(terms)
        result: set[str] = set()
        for field in self._fields:
            for term in terms:
                result.update(self._indexes[field].documents_containing(term))
        return result

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._epoch_documents.ordinal_of

    def __len__(self) -> int:
        return len(self._epoch_documents.doc_ids)
