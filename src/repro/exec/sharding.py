"""Deterministic id→shard routing for the partitioned execution layer.

Shard assignment must be stable across runs and processes (``hash(str)``
is salted per interpreter), independent of insertion order, and uniform
enough that the per-shard candidate pools stay balanced; CRC-32 of the
UTF-8 identifier satisfies all three and runs in C.  The sharded index
facade (:class:`~repro.index.sharded.ShardedFieldedIndex`) maintains an
incremental id→shard map on top of :func:`shard_of` so query-time
partitioning is a dictionary lookup, not a hash per candidate.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from zlib import crc32


def shard_of(identifier: str, num_shards: int) -> int:
    """The shard an identifier routes to (deterministic, 0-based)."""
    if num_shards <= 1:
        return 0
    return crc32(identifier.encode("utf-8")) % num_shards


def partition_ids(
    identifiers: Iterable[str],
    num_shards: int,
    router: Callable[[str], int] | None = None,
) -> list[list[str]]:
    """Partition identifiers into per-shard buckets.

    ``router`` overrides the CRC routing — the sharded index facades pass
    their memoised id→shard lookup here.  Every bucket is returned even
    when empty, so callers can zip buckets with per-shard workers.
    """
    if num_shards <= 1:
        return [list(identifiers)]
    buckets: list[list[str]] = [[] for _ in range(num_shards)]
    if router is None:
        for identifier in identifiers:
            buckets[crc32(identifier.encode("utf-8")) % num_shards].append(identifier)
    else:
        for identifier in identifiers:
            buckets[router(identifier)].append(identifier)
    return buckets


def partition_candidates(
    index: object,
    candidates: Iterable[str],
    num_shards: int,
) -> list[list[str]]:
    """Partition candidates, preferring the index's own routing map.

    A sharded index facade routes in O(1) per candidate from its
    incremental id→shard map; any other index falls back to CRC routing,
    which assigns the same shards (the facades route by the same CRC), so
    scorers behave identically whether or not the engine handed them a
    sharded index instance.
    """
    method = getattr(index, "partition_candidates", None)
    if method is not None and getattr(index, "num_shards", None) == num_shards:
        return method(candidates)
    return partition_ids(candidates, num_shards)


def split_frequencies(
    frequencies: Mapping[str, int],
    num_shards: int,
    router: Callable[[str], int] | None = None,
) -> list[dict[str, int]]:
    """Split one ``doc_id -> tf`` postings map into per-shard sub-maps.

    One pass over the postings, so sharding a sparse (BM25-family)
    traversal costs O(postings) once per (term, epoch) — the scorers
    memoise the result on :class:`~repro.index.statistics.CollectionStatistics`
    next to the term's contribution bounds.
    """
    if num_shards <= 1:
        return [dict(frequencies)]
    shards: list[dict[str, int]] = [{} for _ in range(num_shards)]
    if router is None:
        for doc_id, tf in frequencies.items():
            shards[crc32(doc_id.encode("utf-8")) % num_shards][doc_id] = tf
    else:
        for doc_id, tf in frequencies.items():
            shards[router(doc_id)][doc_id] = tf
    return shards
