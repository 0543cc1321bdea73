"""The backend-agnostic snapshot segment codec.

An epoch-tagged serialisation format for snapshots: a compact JSON
manifest followed by the raw array bytes.  Everything about *bytes*
lives here (alignment, header packing, array placement, checksums,
decoding); the mmap'd file store in :mod:`repro.storage.diskstore`
only decides *where* a segment's bytes live.

Layout of a snapshot segment (format version 2)::

    [0:8)    the 8-byte magic ``PVTESNAP``
    [8:16)   int64  format version
    [16:24)  int64  manifest length in bytes
    [24:32)  int64  arrays base offset (64-byte aligned)
    [32:..)  UTF-8 JSON manifest
    [base:.) the arrays, each 64-byte aligned, offsets relative to base

Version 1 (16-byte header, no magic, no checksums) never touched disk,
so nothing decodes it any more.  Version 2 adds the magic + version preamble and a CRC32 per placed
array: every array descriptor in the manifest is a
``[offset, dtype, shape, crc32]`` quadruple, and
:meth:`SegmentView.verify_checksums` can prove a segment's array bytes
intact before anything scores against them — the disk store does this
eagerly on every attach (a file survives process restarts and can rot).

The decoded read surface is :class:`SegmentView`: zero-copy numpy views
over any buffer (an ``np.memmap``, plain ``bytes``), string tables, and
the :class:`~repro.kg.topology.GraphTopology` reconstruction for
topology segments.  Index segments (kind
``"fielded-index"``) hold one posting CSR per field, so their manifest
grows with the field count, not the vocabulary; they and feature-table
segments are adopted by :mod:`repro.storage.kgstore`.
"""

from __future__ import annotations

import json
import zlib
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..features.columnar import ColumnarFeatureTables
    from ..kg.columns import LogColumns
    from ..index.columnar import ColumnarIndex
    from ..index.fielded_index import FieldedIndex
    from ..kg.topology import GraphTopology

#: Array alignment inside a snapshot segment (cache-line friendly).
ALIGN = 64

#: The segment preamble: magic + version + manifest length + arrays base.
MAGIC = b"PVTESNAP"
FORMAT_VERSION = 2
HEADER_BYTES = 32


class SnapshotUnavailable(RuntimeError):
    """The requested snapshot segment is missing, stale or malformed."""


def align(offset: int) -> int:
    """Round ``offset`` up to the next :data:`ALIGN` boundary."""
    return (offset + ALIGN - 1) & ~(ALIGN - 1)


class SegmentBuilder:
    """Accumulates manifest array descriptors, then writes one segment.

    ``place`` assigns each array a 64-aligned offset (relative to the
    arrays base, so the manifest can be encoded before the base is
    known) and returns its ``[offset, dtype, shape, crc32]`` descriptor;
    ``write_into`` encodes the header + manifest and copies every placed
    array into a caller-provided buffer (a file-backed mmap, a
    bytearray).  Shared by every snapshot kind: this is the single home
    of the alignment / ceil-div / header-packing logic.
    """

    def __init__(self) -> None:
        self._arrays: list[np.ndarray] = []
        self._cursor = 0

    def place(self, array: np.ndarray) -> list[object]:
        array = np.ascontiguousarray(array)
        offset = align(self._cursor)
        self._cursor = offset + array.nbytes
        self._arrays.append(array)
        crc = zlib.crc32(array.tobytes()) if array.nbytes else 0
        return [offset, array.dtype.str, list(array.shape), crc]

    @staticmethod
    def encode_manifest(manifest: dict[str, object]) -> bytes:
        return json.dumps(manifest, separators=(",", ":")).encode("utf-8")

    def total_size(self, encoded_manifest: bytes) -> tuple[int, int]:
        """``(total segment bytes, arrays base offset)`` for a manifest."""
        arrays_base = align(HEADER_BYTES + len(encoded_manifest))
        total = max(arrays_base + self._cursor, HEADER_BYTES + len(encoded_manifest))
        return total, arrays_base

    def write_into(self, buf, encoded_manifest: bytes) -> int:
        """Write header, manifest and arrays into ``buf``; return total bytes.

        ``buf`` must support the buffer protocol and be at least
        :meth:`total_size` bytes long.
        """
        total, arrays_base = self.total_size(encoded_manifest)
        view = memoryview(buf)
        view[:8] = MAGIC
        header = np.ndarray(3, dtype=np.int64, buffer=view, offset=8)
        header[0] = FORMAT_VERSION
        header[1] = len(encoded_manifest)
        header[2] = arrays_base
        del header
        view[HEADER_BYTES : HEADER_BYTES + len(encoded_manifest)] = encoded_manifest
        cursor = 0
        for array in self._arrays:
            offset = align(cursor)
            cursor = offset + array.nbytes
            if array.nbytes:
                target = np.ndarray(
                    array.shape,
                    dtype=array.dtype,
                    buffer=view,
                    offset=arrays_base + offset,
                )
                target[...] = array
                del target
        del view
        return total


def decode_header(buf, name: str = "snapshot") -> tuple[dict[str, object], int]:
    """Parse a segment's preamble; return ``(manifest, arrays base)``.

    Raises :class:`SnapshotUnavailable` for anything that is not a
    well-formed current-version segment: short buffers, a foreign magic,
    a stale format version, a manifest that overruns the buffer or fails
    to parse.
    """
    view = memoryview(buf)
    if len(view) < HEADER_BYTES:
        raise SnapshotUnavailable(f"snapshot {name!r} is truncated (no header)")
    if bytes(view[:8]) != MAGIC:
        raise SnapshotUnavailable(f"snapshot {name!r} carries a foreign magic")
    header = np.frombuffer(view, dtype=np.int64, count=3, offset=8)
    version, manifest_length, arrays_base = (int(value) for value in header)
    del header
    if version != FORMAT_VERSION:
        raise SnapshotUnavailable(
            f"snapshot {name!r} has format version {version}, "
            f"this build reads version {FORMAT_VERSION}"
        )
    if manifest_length < 0 or HEADER_BYTES + manifest_length > len(view):
        raise SnapshotUnavailable(f"snapshot {name!r} is truncated (manifest overruns)")
    try:
        raw = bytes(view[HEADER_BYTES : HEADER_BYTES + manifest_length])
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotUnavailable(f"snapshot {name!r} manifest is malformed") from error
    if not isinstance(manifest, dict):
        raise SnapshotUnavailable(f"snapshot {name!r} manifest is malformed")
    return manifest, arrays_base


def _is_descriptor(value: object) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 4
        and isinstance(value[0], int)
        and isinstance(value[1], str)
        and isinstance(value[2], list)
        and isinstance(value[3], int)
    )


def iter_descriptors(node: object) -> Iterator[list[object]]:
    """Every array descriptor reachable inside a (decoded) manifest."""
    if _is_descriptor(node):
        yield node  # type: ignore[misc]
        return
    if isinstance(node, dict):
        for value in node.values():
            yield from iter_descriptors(value)
    elif isinstance(node, list):
        for value in node:
            yield from iter_descriptors(value)


class SegmentView:
    """Zero-copy numpy views over one decoded snapshot segment.

    Backend-agnostic: the constructor takes any buffer (``np.memmap``,
    ``bytes``) plus the uid/epoch the caller expects, and presents the
    placed arrays and string tables as read-only views.  Graph-topology
    segments rebuild their :class:`~repro.kg.topology.GraphTopology` via
    :meth:`graph_topology` over the same zero-copy views, and
    graph-triples segments their column log via :meth:`graph_columns`.
    """

    def __init__(
        self,
        buf,
        *,
        name: str = "snapshot",
        expected_uid: int | None = None,
        expected_epoch: int | None = None,
        verify: bool = False,
    ) -> None:
        self._buf = buf
        self._name = name
        self._manifest, self._arrays_base = decode_header(buf, name)
        try:
            self.uid = int(self._manifest["uid"])
            self.epoch = int(self._manifest["epoch"])
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotUnavailable(
                f"snapshot {name!r} manifest lacks uid/epoch"
            ) from error
        if (expected_uid is not None and self.uid != expected_uid) or (
            expected_epoch is not None and self.epoch != expected_epoch
        ):
            stale = (self.uid, self.epoch)
            raise SnapshotUnavailable(
                f"snapshot {name!r} carries {stale}, "
                f"expected ({expected_uid}, {expected_epoch})"
            )
        self._derived: dict[tuple[object, ...], object] = {}
        if verify:
            self.verify_checksums()

    @property
    def manifest(self) -> dict[str, object]:
        """The decoded JSON manifest (treat as read-only)."""
        return self._manifest

    @property
    def kind(self) -> str:
        """The segment's payload kind (``""`` when the manifest names none)."""
        return str(self._manifest.get("kind", ""))

    def array(self, desc: list[object]) -> np.ndarray:
        """Read-only zero-copy view of the array one descriptor places."""
        try:
            offset, dtype, shape = desc[0], desc[1], desc[2]
            array = np.ndarray(
                tuple(shape),
                dtype=np.dtype(dtype),
                buffer=self._buf,
                offset=self._arrays_base + int(offset),
            )
        except (TypeError, ValueError, LookupError) as error:
            raise SnapshotUnavailable(
                f"snapshot {self._name!r} array overruns the segment"
            ) from error
        array.flags.writeable = False
        return array

    def verify_checksums(self) -> None:
        """CRC-check every placed array against its descriptor.

        Raises :class:`SnapshotUnavailable` on the first mismatch (or on
        an array whose descriptor overruns the buffer — a truncated
        segment).  The disk store runs this eagerly on attach.
        """
        for desc in iter_descriptors(self._manifest):
            array = self.array(desc)
            actual = zlib.crc32(array.tobytes()) if array.nbytes else 0
            if actual != int(desc[3]):  # type: ignore[index]
                raise SnapshotUnavailable(
                    f"snapshot {self._name!r} failed its checksum "
                    f"(array at offset {desc[0]})"
                )

    def strings(self, table: dict[str, object], name: str = "strings") -> list[str]:
        """Decode one length-coded string table (see :func:`place_strings`).

        The lengths must be a 1-D integer column of values in
        ``[0, len(text)]`` that add up to the text exactly; anything else
        raises :class:`SnapshotUnavailable`.
        """
        malformed = SnapshotUnavailable(
            f"snapshot {self._name!r} string table {name!r} is malformed"
        )
        try:
            text = self.array(table["text"]).tobytes().decode("utf-8", "surrogatepass")
            lengths = self.array(table["lengths"])
        except (KeyError, TypeError, ValueError) as error:
            raise malformed from error
        if (
            lengths.ndim != 1
            or lengths.dtype.kind not in "iu"
            or (lengths.size and (lengths.min() < 0 or lengths.max() > len(text)))
        ):
            raise malformed
        ends = np.cumsum(lengths).tolist()
        if (ends[-1] if ends else 0) != len(text):
            raise malformed
        return [text[start:end] for start, end in zip([0, *ends], ends)]

    def manifest_array(self, key: str) -> np.ndarray:
        """Zero-copy view of a top-level manifest array by key (memoised)."""
        return self.memoised(("array", key), lambda: self.array(self._manifest[key]))

    def graph_topology(self) -> "GraphTopology":
        """The segment's columnar graph topology, rebuilt zero-copy.

        Only valid on ``"kind": "graph-topology"`` segments; raises
        :class:`SnapshotUnavailable` otherwise, so a mixed-up descriptor
        degrades to the fallback path.  The string tables (entity ids,
        predicates, type ids) travel in the JSON manifest; every CSR and
        interval array stays a read-only view over the segment buffer.
        """
        if self._manifest.get("kind") != "graph-topology":
            raise SnapshotUnavailable("segment does not carry a graph topology")

        def build() -> "GraphTopology":
            from ..kg.topology import GraphTopology

            return GraphTopology.from_arrays(
                epoch=self.epoch,
                entity_ids=list(self._manifest["entity_ids"]),
                predicates=list(self._manifest["predicates"]),
                type_ids=list(self._manifest["type_ids"]),
                out_offsets=self.manifest_array("out_offsets"),
                out_targets=self.manifest_array("out_targets"),
                out_preds=self.manifest_array("out_preds"),
                in_offsets=self.manifest_array("in_offsets"),
                in_sources=self.manifest_array("in_sources"),
                in_preds=self.manifest_array("in_preds"),
                type_offsets=self.manifest_array("type_offsets"),
                type_members=self.manifest_array("type_members"),
                type_parents=self.manifest_array("type_parents"),
                type_pre=self.manifest_array("type_pre"),
                type_post=self.manifest_array("type_post"),
                pre_order=self.manifest_array("pre_order"),
                subtree_sizes=self.manifest_array("subtree_sizes"),
            )

        return self.memoised(("graph-topology",), build)

    def graph_columns(self) -> "LogColumns":
        """The segment's column log, copied out of the buffer.

        Only valid on ``"kind": "graph-triples"`` segments.  The arrays
        are copies (a graph owns its log and outlives the mapping) and
        nothing is cross-checked here — callers run
        :meth:`~repro.kg.columns.LogColumns.check` on the result.
        """
        if self._manifest.get("kind") != "graph-triples":
            raise SnapshotUnavailable("segment does not carry a graph's triples")
        from ..kg.columns import LogColumns

        try:
            tables = {
                name: (self.strings(table, name), self.array(table["stamps"]).tolist())
                for name, table in self._manifest["tables"].items()
            }
            return LogColumns(
                triples=int(self._manifest["triples"]),
                tables=tables,
                rows={
                    name: np.array(self.array(desc))
                    for name, desc in self._manifest["rows"].items()
                },
            )
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise SnapshotUnavailable(
                f"snapshot {self._name!r} column log is malformed"
            ) from error

    def memoised(self, key: tuple[object, ...], compute):
        cached = self._derived.get(key)
        if cached is None and key not in self._derived:
            cached = compute()
            self._derived[key] = cached
        return cached

    def release_views(self) -> None:
        """Drop every cached view so the backing buffer can be released."""
        self._derived = {}
        self._manifest = {}


# --------------------------------------------------------------------- #
# Payload encoders (one per snapshot kind, shared by every backend)
# --------------------------------------------------------------------- #
def place_strings(place, strings: list[str]) -> dict[str, object]:
    """Place a string table: UTF-8 bytes end to end plus lengths in characters.

    Length-coded, so a string may contain any character; decoded by
    :meth:`SegmentView.strings`.
    """
    text = "".join(strings).encode("utf-8", "surrogatepass")
    return {
        "text": place(np.frombuffer(text, dtype=np.uint8)),
        "lengths": place(np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))),
    }


#: The payload kind of an index segment: one posting CSR per field.
INDEX_KIND = "fielded-index"


def encode_index_snapshot(
    index: "FieldedIndex",
    view: "ColumnarIndex",
) -> tuple[dict[str, object], SegmentBuilder]:
    """Serialise one index epoch into ``(manifest, builder)``.

    Each field becomes one CSR over document ordinals: its terms as a
    string table in ascending order, ``offsets`` into one int64
    ``ordinals`` column and one int64 ``frequencies`` column, plus its
    int64 length column.  The document ids follow as a string table in
    ordinal order, with a per-document CRC column that guards them (see
    :func:`repro.storage.kgstore.restore_fielded_index`).  So the
    manifest holds O(fields) descriptors whatever the vocabulary.  Nothing here decodes a posting
    list: :meth:`~repro.index.inverted_index.InvertedIndex.posting_csr`
    renumbers an adopted field's stored rows as arrays.
    """
    builder = SegmentBuilder()
    place = builder.place
    crcs = np.fromiter(
        (zlib.crc32(doc_id.encode("utf-8")) for doc_id in view.doc_ids),
        dtype=np.uint32,
        count=view.num_documents,
    )
    manifest: dict[str, object] = {
        "uid": index.uid,
        "epoch": index.epoch,
        "kind": INDEX_KIND,
        "num_documents": view.num_documents,
        "fields": list(index.fields),
        "crcs": place(crcs),
        "lengths": {},
        "postings": {},
        "doc_ids": place_strings(place, view.doc_ids),
    }
    for field in index.fields:
        terms, offsets, ordinals, frequencies = index.field_index(field).posting_csr(
            view.ordinal_of
        )
        manifest["lengths"][field] = place(view.field_lengths(field).astype(np.int64))
        manifest["postings"][field] = {
            "terms": place_strings(place, terms),
            "offsets": place(offsets),
            "ordinals": place(ordinals),
            "frequencies": place(frequencies),
        }
    return manifest, builder


def encode_feature_tables(
    source, tables: "ColumnarFeatureTables"
) -> tuple[dict[str, object], SegmentBuilder]:
    """Serialise one epoch's columnar feature tables into ``(manifest, builder)``.

    The manifest carries the entity identifiers and the feature-key
    triples in ordinal order plus the holder CSR, dominant-type
    ordinals, type populations and the entity→type membership CSR — all
    a cold-starting process needs to answer from the tables and to
    invert them back into the maps of a
    :class:`~repro.features.feature_index.FeatureIndexSnapshot`.
    ``source`` is anything with ``uid``/``epoch`` pinning the publishing
    feature index's uid and the *tables'* epoch.
    """
    builder = SegmentBuilder()
    place = builder.place
    manifest: dict[str, object] = {
        "uid": source.uid,
        "epoch": source.epoch,
        "kind": "feature-tables",
        "num_entities": tables.num_entities,
        "features": tables.feature_keys(),
        "holder_offsets": place(tables.holder_offsets),
        "holder_ordinals": place(tables.holder_ordinals),
        "dominant_ords": place(tables.dominant_ords),
        "type_populations": place(tables.type_populations),
        "member_offsets": place(tables.member_offsets),
        "member_type_ords": place(tables.member_type_ords),
        "entity_ids": list(tables.entity_ids),
    }
    return manifest, builder


def encode_graph_topology(
    source, topology: "GraphTopology"
) -> tuple[dict[str, object], SegmentBuilder]:
    """Serialise one epoch's columnar graph topology into ``(manifest, builder)``.

    The manifest carries the sorted entity/predicate/type string tables
    plus both CSR adjacency directions (neighbour + parallel
    predicate-ordinal columns), the per-type sorted member-ordinal CSR
    and the pre/post-order interval encoding of the containment forest.
    ``source`` is anything with ``uid``/``epoch`` pinning the publishing
    graph's identity and the topology's epoch.
    """
    builder = SegmentBuilder()
    place = builder.place
    return {
        "uid": source.uid,
        "epoch": source.epoch,
        "kind": "graph-topology",
        "num_entities": topology.num_entities,
        "entity_ids": list(topology.entity_ids),
        "predicates": list(topology.predicates),
        "type_ids": list(topology.type_ids),
        "out_offsets": place(topology.out_offsets),
        "out_targets": place(topology.out_targets),
        "out_preds": place(topology.out_preds),
        "in_offsets": place(topology.in_offsets),
        "in_sources": place(topology.in_sources),
        "in_preds": place(topology.in_preds),
        "type_offsets": place(topology.type_offsets),
        "type_members": place(topology.type_members),
        "type_parents": place(topology.type_parents),
        "type_pre": place(topology.type_pre),
        "type_post": place(topology.type_post),
        "pre_order": place(topology.pre_order),
        "subtree_sizes": place(topology.subtree_sizes),
    }, builder


def encode_graph_triples(
    source, columns: "LogColumns"
) -> tuple[dict[str, object], SegmentBuilder]:
    """Serialise one graph's whole column log into ``(manifest, builder)``.

    The durable form of the graph itself (kind ``"graph-triples"``): the
    three stamped row logs as they are, and each string table as its
    strings' UTF-8 bytes end to end plus their lengths in characters and
    their stamps — length-coded, so a string may contain any character.
    ``source`` is anything with ``uid``/``epoch``; the manifest also
    records the triple count the rows must add up to.
    """
    builder = SegmentBuilder()
    place = builder.place
    tables = {
        name: {
            **place_strings(place, strings),
            "stamps": place(np.asarray(stamps, dtype=np.int64)),
        }
        for name, (strings, stamps) in columns.tables.items()
    }
    return {
        "uid": source.uid,
        "epoch": source.epoch,
        "kind": "graph-triples",
        "triples": columns.triples,
        "tables": tables,
        "rows": {name: place(rows) for name, rows in columns.rows.items()},
    }, builder
