"""A dict model of the fielded search index: the oracle the index is checked against.

Each field is ``term -> {doc_id: tf}`` plus ``doc_id -> length``, written
document by document in place; a write replaces the document.  What the
model answers is what a fresh sorted build over the same documents holds:
:meth:`ReferenceIndex.csr` is that build's arrays, and
:func:`assert_index_equals` checks a :class:`~repro.index.FieldedIndex`
epoch against the model array for array (its merged CSRs) and per term
(its epoch postings and counts, read through the written documents).
:func:`sorted_build` makes an index the way the search engine's build
does, from analysed documents.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping

import numpy as np

from repro.exceptions import FieldNotFoundError
from repro.index import DocumentColumns, FieldedIndex, PostingColumns


class ReferenceField:
    """One field: ``term -> {doc_id: tf}`` and ``doc_id -> length``."""

    def __init__(self) -> None:
        self.postings: dict[str, dict[str, int]] = {}
        self.lengths: dict[str, int] = {}

    def write(self, doc_id: str, terms: Iterable[str]) -> None:
        """Index ``doc_id`` as ``terms``, replacing what it held."""
        for term in [term for term, held in self.postings.items() if doc_id in held]:
            del self.postings[term][doc_id]
            if not self.postings[term]:
                del self.postings[term]
        counts = Counter(terms)
        for term, count in counts.items():
            self.postings.setdefault(term, {})[doc_id] = count
        self.lengths[doc_id] = sum(counts.values())

    def counts(self, term: str) -> tuple[int, int, int]:
        """``(collection frequency, document frequency, max tf)``."""
        held = self.postings.get(term, {})
        return sum(held.values()), len(held), max(held.values(), default=0)

    def csr(self) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(terms, offsets, ordinals, frequencies, lengths)`` of a fresh sorted build."""
        doc_ids = sorted(self.lengths)
        ordinal = {doc_id: position for position, doc_id in enumerate(doc_ids)}
        terms = sorted(self.postings)
        offsets, ordinals, frequencies = [0], [], []
        for term in terms:
            for doc_id in sorted(self.postings[term], key=ordinal.__getitem__):
                ordinals.append(ordinal[doc_id])
                frequencies.append(self.postings[term][doc_id])
            offsets.append(len(ordinals))
        return (
            terms,
            np.array(offsets, dtype=np.int64),
            np.array(ordinals, dtype=np.int64),
            np.array(frequencies, dtype=np.int64),
            np.array([self.lengths[doc_id] for doc_id in doc_ids], dtype=np.int64),
        )


class ReferenceIndex:
    """The fielded model: one :class:`ReferenceField` per field."""

    def __init__(self, fields: Iterable[str]) -> None:
        self.fields = tuple(fields)
        self.field = {name: ReferenceField() for name in self.fields}

    def write(self, doc_id: str, field_terms: Mapping[str, Iterable[str]]) -> None:
        """Index ``doc_id`` (fields missing from ``field_terms`` as empty), replacing it."""
        for name in field_terms:
            if name not in self.field:
                raise FieldNotFoundError(name)
        for name in self.fields:
            self.field[name].write(doc_id, field_terms.get(name, ()))

    @property
    def doc_ids(self) -> list[str]:
        return sorted(self.field[self.fields[0]].lengths)


def sorted_build(fields: Iterable[str], documents: Mapping[str, Mapping[str, Iterable[str]]]) -> FieldedIndex:
    """The index the engine's build makes: token rows sorted into one CSR per field."""
    fields = tuple(fields)
    doc_ids = sorted(documents)
    tokens = {
        name: [(term, ordinal) for ordinal, doc_id in enumerate(doc_ids)
               for term in documents[doc_id].get(name, ())]
        for name in fields
    }
    vocabulary = sorted({term for rows in tokens.values() for term, _ in rows})
    code = {term: position for position, term in enumerate(vocabulary)}
    stored = DocumentColumns(doc_ids)
    return FieldedIndex(
        fields,
        stored,
        {
            name: PostingColumns.from_tokens(
                stored,
                vocabulary,
                np.array([code[term] for term, _ in rows], dtype=np.int64),
                np.array([ordinal for _, ordinal in rows], dtype=np.int64),
            )
            for name, rows in tokens.items()
        },
    )


def assert_same_array(got: np.ndarray, want: np.ndarray, what: object) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert np.array_equal(got, want), what


def assert_index_equals(index: FieldedIndex, reference: ReferenceIndex, probe: int = 20) -> None:
    """``index`` holds what ``reference`` does: arrays, per-term counts, lengths.

    The merged CSRs (what a save writes) must equal the fresh build
    array for array.  Every term of the model (and one it lacks) must
    read the same postings and counts through the epoch, and the epoch's
    length column, totals and shortest/longest lengths must be the
    model's.  ``probe`` documents (plus an unknown one) are read one by one.
    """
    doc_ids = reference.doc_ids
    assert index.fields == reference.fields
    assert index.doc_ids == doc_ids and index.num_documents == len(doc_ids)
    documents, columns = index.stored_columns()
    assert documents.doc_ids == doc_ids
    for name in reference.fields:
        model = reference.field[name]
        terms, offsets, ordinals, frequencies, lengths = model.csr()
        csr = columns[name]
        assert csr.terms == terms, name
        assert_same_array(csr.offsets, offsets, (name, "offsets"))
        assert_same_array(csr.ordinals, ordinals, (name, "ordinals"))
        assert_same_array(csr.frequencies, frequencies, (name, "frequencies"))
        assert_same_array(csr.lengths, lengths, (name, "lengths"))
        field = index.field_index(name)
        assert_same_array(index.field_lengths(name), lengths.astype(np.float64), (name, "epoch lengths"))
        assert field.total_terms == int(lengths.sum())
        assert (field.min_length, field.max_length) == (
            (int(lengths.min()), int(lengths.max())) if lengths.size else (0, 0)
        ), name
        for row, term in enumerate([*terms, "no-such-term"]):
            assert field.term_counts(term) == model.counts(term), (name, term)
            postings = index.postings(name, term)
            if term not in model.postings:
                assert postings is None and term not in field, (name, term)
                continue
            start, end = int(offsets[row]), int(offsets[row + 1])
            assert_same_array(postings.ordinals, ordinals[start:end], (name, term))
            assert_same_array(
                postings.frequencies, frequencies[start:end].astype(np.float64), (name, term)
            )
        step = max(1, len(doc_ids) // probe)
        for doc_id in [*doc_ids[::step], "ex:nobody"]:
            assert field.document_length(doc_id) == model.lengths.get(doc_id, 0), (name, doc_id)
            for term in terms[:: max(1, len(terms) // probe)]:
                assert field.term_frequency(term, doc_id) == (
                    model.postings[term].get(doc_id, 0)
                ), (name, term, doc_id)


def assert_same_index(got: FieldedIndex, want: FieldedIndex) -> None:
    """Two indexes hold the same documents: merged CSRs array for array, and
    per term (as each epoch reads it) the same postings and counts."""
    assert got.fields == want.fields and got.doc_ids == want.doc_ids
    (_, mine), (_, theirs) = got.stored_columns(), want.stored_columns()
    for name in want.fields:
        left, right = mine[name], theirs[name]
        assert left.terms == right.terms, name
        for column in ("offsets", "ordinals", "frequencies", "lengths"):
            assert_same_array(getattr(left, column), getattr(right, column), (name, column))
        assert_same_array(got.field_lengths(name), want.field_lengths(name), (name, "epoch lengths"))
        field, other = got.field_index(name), want.field_index(name)
        assert (field.total_terms, field.min_length, field.max_length) == (
            other.total_terms, other.min_length, other.max_length
        ), name
        for term in [*right.terms, "no-such-term"]:
            assert field.term_counts(term) == other.term_counts(term), (name, term)
            postings, expected = got.postings(name, term), want.postings(name, term)
            assert (postings is None) == (expected is None), (name, term)
            if expected is not None:
                assert_same_array(postings.ordinals, expected.ordinals, (name, term))
                assert_same_array(postings.frequencies, expected.frequencies, (name, term))
