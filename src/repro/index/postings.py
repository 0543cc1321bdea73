"""Posting lists for the fielded inverted index.

A posting records how often a term occurs in one document field.  Posting
lists keep their entries sorted by document identifier so that they can be
merged and intersected efficiently; :meth:`PostingList.add`,
:meth:`PostingList.put` and :meth:`PostingList.remove` maintain the
invariant (the index rewrites a re-indexed document on a copy).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Posting:
    """One (document, term-frequency) pair."""

    doc_id: str
    term_frequency: int

    def __post_init__(self) -> None:
        if self.term_frequency <= 0:
            raise ValueError("term frequency must be positive")


@dataclass
class PostingList:
    """An ordered list of postings for one term in one field."""

    _doc_ids: list[str] = field(default_factory=list)
    _frequencies: dict[str, int] = field(default_factory=dict)

    def add(self, doc_id: str, count: int = 1) -> None:
        """Add ``count`` occurrences of the term in ``doc_id``."""
        if count <= 0:
            raise ValueError("count must be positive")
        if doc_id in self._frequencies:
            self._frequencies[doc_id] += count
            return
        position = bisect_left(self._doc_ids, doc_id)
        self._doc_ids.insert(position, doc_id)
        self._frequencies[doc_id] = count

    def put(self, doc_id: str, count: int) -> None:
        """Set the term frequency of ``doc_id`` to ``count`` (a re-indexed document)."""
        if count <= 0:
            raise ValueError("count must be positive")
        if doc_id not in self._frequencies:
            self._doc_ids.insert(bisect_left(self._doc_ids, doc_id), doc_id)
        self._frequencies[doc_id] = count

    def remove(self, doc_id: str) -> None:
        """Drop ``doc_id`` from the list (a re-indexed document lost the term)."""
        del self._frequencies[doc_id]
        del self._doc_ids[bisect_left(self._doc_ids, doc_id)]

    def copy(self) -> "PostingList":
        """An independent copy (the copy-on-write step of index snapshots).

        Mutating the copy leaves this list untouched, so readers holding a
        reference to it (statistics pinned to an older index epoch)
        keep a consistent snapshot while the writer extends the copy.
        """
        return PostingList(list(self._doc_ids), dict(self._frequencies))

    def frequency(self, doc_id: str) -> int:
        """Term frequency in ``doc_id`` (0 when absent)."""
        return self._frequencies.get(doc_id, 0)

    def document_frequency(self) -> int:
        """Number of documents containing the term."""
        return len(self._doc_ids)

    def collection_frequency(self) -> int:
        """Total number of occurrences across all documents."""
        return sum(self._frequencies.values())

    def max_frequency(self) -> int:
        """Largest term frequency in any single document (0 when empty)."""
        if not self._frequencies:
            return 0
        return max(self._frequencies.values())

    def doc_ids(self) -> list[str]:
        """Sorted document identifiers containing the term."""
        return list(self._doc_ids)

    def frequencies(self) -> dict[str, int]:
        """The ``doc_id -> term frequency`` map backing this list.

        Returned by reference for the scoring hot path; callers must treat
        it as read-only.
        """
        return self._frequencies

    def __iter__(self) -> Iterator[Posting]:
        for doc_id in self._doc_ids:
            yield Posting(doc_id=doc_id, term_frequency=self._frequencies[doc_id])

    def __len__(self) -> int:
        return len(self._doc_ids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._frequencies


def intersect(left: PostingList, right: PostingList) -> list[str]:
    """Document identifiers present in both posting lists."""
    if len(left) > len(right):
        left, right = right, left
    return [doc_id for doc_id in left.doc_ids() if doc_id in right]


def union(left: PostingList, right: PostingList) -> list[str]:
    """Document identifiers present in either posting list, sorted."""
    merged = set(left.doc_ids())
    merged.update(right.doc_ids())
    return sorted(merged)


def merge_frequencies(lists: list[PostingList]) -> dict[str, int]:
    """Sum term frequencies document-wise across several posting lists."""
    totals: dict[str, int] = {}
    for posting_list in lists:
        for posting in posting_list:
            totals[posting.doc_id] = totals.get(posting.doc_id, 0) + posting.term_frequency
    return totals
