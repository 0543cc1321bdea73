"""Backend-agnostic snapshot storage: codec, disk store, durable KG tier.

The codec (:mod:`repro.storage.codec`) owns the snapshot segment format
— header, manifest, 64-aligned array blobs, per-array CRC32 — and the
mmap'd-file store in :mod:`repro.storage.diskstore` puts segments on
disk as durable, epoch-tagged snapshot files.  On top,
:mod:`repro.storage.kgstore` serialises the knowledge graph and wires
the pieces into ``PivotE.save(dir)`` / ``PivotE.load(dir)`` whole-system
round-trips.

``kgstore`` reaches back into the index/feature layers, so its names
are re-exported lazily — import :mod:`repro.storage` never drags the
engine stack in.
"""

from .codec import (
    ALIGN,
    FORMAT_VERSION,
    HEADER_BYTES,
    MAGIC,
    SegmentBuilder,
    SegmentView,
    SnapshotUnavailable,
    encode_feature_tables,
    encode_graph_triples,
    encode_index_snapshot,
    iter_descriptors,
)
from .diskstore import DiskSnapshot, DiskSnapshotStore

_KGSTORE_NAMES = (
    "FEATURE_TABLES_KEY",
    "GRAPH_TRIPLES_KEY",
    "SEARCH_INDEX_KEY",
    "LoadedSystem",
    "load_graph",
    "load_system",
    "restore_feature_snapshot",
    "restore_fielded_index",
    "restore_graph_topology",
    "save_system",
    "system_store",
)

__all__ = [
    "ALIGN",
    "FORMAT_VERSION",
    "HEADER_BYTES",
    "MAGIC",
    "DiskSnapshot",
    "DiskSnapshotStore",
    "SegmentBuilder",
    "SegmentView",
    "SnapshotUnavailable",
    "encode_feature_tables",
    "encode_graph_triples",
    "encode_index_snapshot",
    "iter_descriptors",
    *_KGSTORE_NAMES,
]


def __getattr__(name: str):
    if name in _KGSTORE_NAMES:
        from . import kgstore

        return getattr(kgstore, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
