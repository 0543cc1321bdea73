"""The sharded facade over the fielded inverted index.

:class:`ShardedFieldedIndex` partitions the *document id space* into N
shards behind the exact read interface of :class:`FieldedIndex`: every
lookup, statistic and scoring support is the global one (the pruned
scorers' arithmetic and bounds must match the serial path bit for bit —
that is what keeps sharded rankings byte-identical by construction), and
the facade adds the routing layer the execution drivers fan out over — a
doc→shard map maintained incrementally at indexing time, so query-time
partitioning of a candidate set is a dictionary lookup per candidate
instead of a hash.

Statistics stay global on purpose.  A fully shared-nothing split (per-
shard collection statistics) would change smoothing masses, IDF weights
and therefore scores; partitioned *traversal* over shared read-only
statistics gives the fan-out/merge structure without giving up the
ranking guarantee.  See :mod:`repro.exec` for the driver side.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import compress

import numpy as np

from ..exec.sharding import partition_ids, shard_of
from .fielded_index import FieldedIndex
from .inverted_index import DocumentColumns, PostingColumns


class ShardedFieldedIndex(FieldedIndex):
    """A :class:`FieldedIndex` whose documents are routed into N shards."""

    def __init__(self, fields: Sequence[str], num_shards: int = 1) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        super().__init__(fields)
        self._num_shards = num_shards
        self._shard_by_doc: dict[str, int] = {}
        #: Per-shard document sets: candidate partitioning of a set runs
        #: as N C-level intersections instead of a per-document lookup.
        self._shard_members: list[set[str]] = [set() for _ in range(num_shards)]

    @property
    def num_shards(self) -> int:
        """How many document shards this index routes into."""
        return self._num_shards

    def _route(self, doc_id: str) -> None:
        shard = shard_of(doc_id, self._num_shards)
        self._shard_by_doc[doc_id] = shard
        self._shard_members[shard].add(doc_id)

    def add_document(self, doc_id: str, field_terms: Mapping[str, Iterable[str]]) -> None:
        super().add_document(doc_id, field_terms)
        self._route(doc_id)

    def adopt(self, documents: DocumentColumns, columns: Mapping[str, PostingColumns]) -> None:
        """Adopt a stored index, routing its documents by their stored CRCs."""
        super().adopt(documents, columns)
        owners = documents.crcs.astype(np.int64) % self._num_shards
        self._shard_by_doc = dict(zip(documents.doc_ids, owners.tolist()))
        self._shard_members = [
            set(compress(documents.doc_ids, owners == shard)) for shard in range(self._num_shards)
        ]

    def _cow_shell(self) -> "ShardedFieldedIndex":
        clone = ShardedFieldedIndex(self.fields, self._num_shards)
        clone._shard_by_doc = dict(self._shard_by_doc)
        clone._shard_members = [set(members) for members in self._shard_members]
        return clone

    def with_added_document(
        self, doc_id: str, field_terms: Mapping[str, Iterable[str]]
    ) -> "ShardedFieldedIndex":
        clone = super().with_added_document(doc_id, field_terms)
        assert isinstance(clone, ShardedFieldedIndex)  # _cow_shell preserves type
        clone._route(doc_id)
        return clone

    def shard_of_document(self, doc_id: str) -> int:
        """The shard a document routes to (stable even for unseen ids)."""
        shard = self._shard_by_doc.get(doc_id)
        if shard is None:
            shard = shard_of(doc_id, self._num_shards)
        return shard

    def partition_candidates(self, candidates: Iterable[str]) -> list[list[str]]:
        """Split a candidate set into per-shard buckets (all N returned).

        Set inputs (the scorers' candidate sets) partition via C-level
        intersection with the incrementally-maintained per-shard member
        sets; anything else falls back to the per-id routing lookup.
        Documents never indexed here route by CRC, like :meth:`shard_of_document`.
        """
        if isinstance(candidates, (set, frozenset)):
            buckets = [
                list(candidates & members) for members in self._shard_members
            ]
            covered = sum(len(bucket) for bucket in buckets)
            if covered < len(candidates):
                # Candidates outside the indexed document space (callers
                # probing hypothetical ids) still route deterministically.
                known = set().union(*self._shard_members) if self._shard_members else set()
                for doc_id in candidates - known:
                    buckets[shard_of(doc_id, self._num_shards)].append(doc_id)
            return buckets
        return partition_ids(candidates, self._num_shards, router=self.shard_of_document)
