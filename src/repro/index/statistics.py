"""Collection statistics needed by the retrieval models.

Language-model smoothing needs collection term frequencies and field
lengths; the max-score search kernel bounds each term's contribution by
its largest tf and the shortest and longest field lengths.  The
statistics object is computed once per index and shared by all scorers.

Collection probabilities are memoised on the statistics object, so the
scorers pay the derivation once per query term instead of once per
scored document.  The memo lives and dies with the statistics object,
which the index rebuilds whenever a document is added (see
:meth:`repro.index.fielded_index.FieldedIndex.statistics`), so it can
never serve stale values.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .inverted_index import InvertedIndex, PostingColumns


class FieldStatistics:
    """Statistics of a single retrieval field across the collection.

    The per-term counts — collection frequency, document frequency and
    largest tf in one document — are three ``term -> count`` maps, except
    on a field that still answers from the stored CSR it was adopted
    from (:meth:`from_columns`): there a lookup reduces the term's row
    (:meth:`~repro.index.inverted_index.PostingColumns.term_counts`), so
    a query pays for the terms it names, and the maps are built only when
    a caller reads a whole one.  Either way the statistics are equal to a
    fresh scan, and compare equal to it.
    """

    __slots__ = (
        "name",
        "total_terms",
        "document_count",
        "min_length",
        "max_length",
        "_maps",
        "_columns",
        "_probability_cache",
    )

    def __init__(
        self,
        name: str,
        total_terms: int = 0,
        document_count: int = 0,
        min_length: int = 0,
        max_length: int = 0,
        term_collection_frequency: dict[str, int] | None = None,
        term_document_frequency: dict[str, int] | None = None,
        term_max_frequency: dict[str, int] | None = None,
    ) -> None:
        self.name = name
        self.total_terms = total_terms
        self.document_count = document_count
        #: Shortest / longest indexed field length across the collection, used
        #: by the pruned scorers to bound length-normalised contributions.
        self.min_length = min_length
        self.max_length = max_length
        self._maps: tuple[dict[str, int], dict[str, int], dict[str, int]] | None = (
            term_collection_frequency or {},
            term_document_frequency or {},
            term_max_frequency or {},
        )
        #: The stored CSR the per-term counts are read from, when set.
        self._columns: "PostingColumns | None" = None
        #: Memoised ``term -> p(term | collection)`` (derived, never serialised).
        self._probability_cache: dict[str, float] = {}

    @classmethod
    def from_columns(cls, name: str, columns: "PostingColumns") -> "FieldStatistics":
        """The statistics of a field adopted from ``columns`` and never written.

        The totals and the shortest and longest length come off the
        stored length column; the per-term counts off the rows, per term.
        """
        lengths = columns.lengths
        statistics = cls(
            name,
            columns.total_terms,
            int(lengths.size),
            int(lengths.min()) if lengths.size else 0,
            int(lengths.max()) if lengths.size else 0,
        )
        statistics._maps, statistics._columns = None, columns
        return statistics

    def _term_maps(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        maps = self._maps
        if maps is None:
            # Benign race: concurrent first callers build equal maps.
            maps = self._maps = self._columns.term_statistics()  # type: ignore[union-attr]
        return maps

    @property
    def term_collection_frequency(self) -> dict[str, int]:
        """``term -> occurrences`` over the whole field (treat as read-only)."""
        return self._term_maps()[0]

    @property
    def term_document_frequency(self) -> dict[str, int]:
        """``term -> documents holding it`` (treat as read-only)."""
        return self._term_maps()[1]

    @property
    def term_max_frequency(self) -> dict[str, int]:
        """``term ->`` largest tf in any single document, the other
        ingredient of the per-(field, term) contribution bounds (read-only)."""
        return self._term_maps()[2]

    def _count(self, term: str, which: int) -> int:
        columns = self._columns
        if columns is not None:
            return columns.term_counts(term)[which]
        return self._maps[which].get(term, 0)  # type: ignore[index]

    def _key(self) -> tuple[object, ...]:
        return (
            self.name, self.total_terms, self.document_count,
            self.min_length, self.max_length, self._term_maps(),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldStatistics):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"FieldStatistics(name={self.name!r}, total_terms={self.total_terms}, "
            f"document_count={self.document_count}, min_length={self.min_length}, "
            f"max_length={self.max_length})"
        )

    @property
    def average_length(self) -> float:
        """Average number of terms per document in this field."""
        if self.document_count == 0:
            return 0.0
        return self.total_terms / self.document_count

    def collection_probability(self, term: str) -> float:
        """Maximum-likelihood probability of ``term`` in the field's collection model."""
        cached = self._probability_cache.get(term)
        if cached is not None:
            return cached
        if self.total_terms == 0:
            probability = 0.0
        else:
            probability = self._count(term, 0) / self.total_terms
        self._probability_cache[term] = probability
        return probability

    def document_frequency(self, term: str) -> int:
        """Number of documents whose field contains ``term``."""
        return self._count(term, 1)

    def max_frequency(self, term: str) -> int:
        """Largest term frequency of ``term`` in any single document."""
        return self._count(term, 2)

    def with_added_document(
        self,
        counts: Mapping[str, int],
        previous: Mapping[str, int] | None = None,
        index: "InvertedIndex | None" = None,
    ) -> "FieldStatistics":
        """The statistics after one document is written with these term counts.

        ``previous`` is ``None`` for a new document, else the counts the
        document replaces; ``index`` is then the successor field, which
        answers the recounts the old counts alone cannot — the max tf of a
        term whose maximum the old document held, and the shortest and
        longest length when the old document was one of them.  Raw
        counts are copied and patched with integer arithmetic, so they
        equal a fresh scan; the probability memo starts empty (every
        probability depends on the totals that just changed).
        """
        length = sum(counts.values())
        if previous is None:
            old_length, documents = 0, self.document_count + 1
            min_length = min(self.min_length, length) if self.document_count else length
            max_length = max(self.max_length, length) if self.document_count else length
        else:
            assert index is not None
            old_length, documents = sum(previous.values()), self.document_count
            min_length, max_length = min(self.min_length, length), max(self.max_length, length)
            if length != old_length and old_length in (self.min_length, self.max_length):
                lengths = index.document_lengths().values()
                min_length, max_length = min(lengths), max(lengths)
        successor = FieldStatistics(
            name=self.name,
            total_terms=self.total_terms + length - old_length,
            document_count=documents,
            min_length=min_length,
            max_length=max_length,
            term_collection_frequency=dict(self.term_collection_frequency),
            term_document_frequency=dict(self.term_document_frequency),
            term_max_frequency=dict(self.term_max_frequency),
        )
        collection, document, maximum = (
            successor.term_collection_frequency,
            successor.term_document_frequency,
            successor.term_max_frequency,
        )
        previous = previous or {}
        for term in [*counts, *(term for term in previous if term not in counts)]:
            old, new = previous.get(term, 0), counts.get(term, 0)
            frequency = document.get(term, 0) - (old > 0) + (new > 0)
            if not frequency:
                del collection[term], document[term], maximum[term]
                continue
            collection[term] = collection.get(term, 0) - old + new
            document[term] = frequency
            if new < old == maximum[term]:  # the old document held the maximum
                maximum[term] = index.get_postings(term).max_frequency()  # type: ignore[union-attr]
            else:
                maximum[term] = max(maximum.get(term, 0), new)
        return successor


@dataclass
class CollectionStatistics:
    """Statistics of the whole fielded collection."""

    num_documents: int = 0
    fields: dict[str, FieldStatistics] = field(default_factory=dict)
    #: The epoch's columnar view (see
    #: :func:`repro.index.columnar.columnar_view`); derived, never serialised.
    columnar_view: object = field(default=None, repr=False, compare=False)

    def field(self, name: str) -> FieldStatistics:
        """Statistics for one field, creating an empty record if unknown."""
        if name not in self.fields:
            self.fields[name] = FieldStatistics(name=name)
        return self.fields[name]

    def with_added_document(
        self,
        field_counts: Mapping[str, Mapping[str, int]],
        previous: Mapping[str, Mapping[str, int]] | None = None,
        indexes: Mapping[str, "InvertedIndex"] | None = None,
    ) -> "CollectionStatistics":
        """The statistics after one document is written (``field → term counts``).

        ``previous`` is ``None`` for a new document, else the per-field
        counts it replaces, with ``indexes`` the successor's fields (see
        :meth:`FieldStatistics.with_added_document`).  Equal to a fresh
        scan of the successor index, at the cost of copying the count
        dictionaries; the memos and the columnar view start empty, as on
        any new epoch.
        """
        return CollectionStatistics(
            num_documents=self.num_documents + (previous is None),
            fields={
                name: stats.with_added_document(
                    field_counts.get(name, {}),
                    None if previous is None else previous.get(name, {}),
                    None if indexes is None else indexes[name],
                )
                for name, stats in self.fields.items()
            },
        )

    def collection_probability(self, field_name: str, term: str) -> float:
        """Memoised ``p(term | collection)`` for one field."""
        return self.field(field_name).collection_probability(term)

    def vocabulary_size(self) -> int:
        """Number of distinct terms across all fields."""
        vocabulary: set[str] = set()
        for stats in self.fields.values():
            vocabulary.update(stats.term_collection_frequency)
        return len(vocabulary)

    def summary(self) -> Mapping[str, float]:
        """Per-field average lengths plus global counts, for reporting."""
        report: dict[str, float] = {"documents": float(self.num_documents)}
        for name, stats in sorted(self.fields.items()):
            report[f"avg_len[{name}]"] = stats.average_length
            report[f"terms[{name}]"] = float(stats.total_terms)
        return report
