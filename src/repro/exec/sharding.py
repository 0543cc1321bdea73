"""Deterministic id→shard routing for the partitioned execution layer.

Shard assignment must be stable across runs and processes (``hash(str)``
is salted per interpreter), independent of insertion order, and uniform
enough that the per-shard candidate pools stay balanced; CRC-32 of the
UTF-8 identifier satisfies all three and runs in C.  The columnar view
turns it into a per-ordinal ownership column
(:meth:`repro.index.columnar.ColumnarIndex.shard_map`), and stored index
segments carry the CRCs so process-tier workers cut the same shards.
"""

from __future__ import annotations

from zlib import crc32


def shard_of(identifier: str, num_shards: int) -> int:
    """The shard an identifier routes to (deterministic, 0-based)."""
    if num_shards <= 1:
        return 0
    return crc32(identifier.encode("utf-8")) % num_shards
