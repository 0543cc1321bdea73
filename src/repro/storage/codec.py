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
over any buffer (an ``np.memmap``, plain ``bytes``) and string tables.
A ``graph-triples`` segment holds a system's
identifier tables, sorted — its :class:`Dictionary` — and the other
segments reference them by count and CRC-32 instead of listing them:
index segments (kind ``"fielded-index"``) hold one posting CSR per field,
and feature-table segments their arrays and their features as codes, so
no manifest grows with the corpus.  The segments are
adopted by :mod:`repro.storage.kgstore`.
"""

from __future__ import annotations

import json
import zlib
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..kg.columns import ID_TABLES, LogColumns, StringColumn, rank_strings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..features.columnar import ColumnarFeatureTables
    from ..index.fielded_index import FieldedIndex
    from ..utils.ordinals import OrdinalMap

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
    placed arrays and string tables as read-only views, and graph-triples
    segments their column log via :meth:`graph_columns`.
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

    def string_column(self, table: dict[str, object], name: str = "strings") -> StringColumn:
        """One length-coded string table (see :func:`place_strings`), unlisted.

        The text is decoded once and each string is sliced out when read
        (:class:`~repro.kg.columns.StringColumn`).  The lengths must be a
        1-D integer column of values in ``[0, len(text)]`` that add up to
        the text exactly; anything else raises :class:`SnapshotUnavailable`.
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
        ends = np.cumsum(lengths, dtype=np.int64)
        if (int(ends[-1]) if ends.size else 0) != len(text):
            raise malformed
        return StringColumn(text, ends)

    def strings(self, table: dict[str, object], name: str = "strings") -> list[str]:
        """Decode one length-coded string table into a list (see :meth:`string_column`).

        A table placed once and named twice is decoded once: both names
        get the same list.
        """
        try:
            placed = (table["text"][0], table["lengths"][0])
        except (KeyError, TypeError, IndexError) as error:
            raise SnapshotUnavailable(
                f"snapshot {self._name!r} string table {name!r} is malformed"
            ) from error
        return self.memoised(
            ("strings", *placed), lambda: self.string_column(table, name).tolist()
        )

    def string_table(self, key: str) -> list[str]:
        """A top-level string table by key.

        Placed by :func:`place_strings`; a segment saved before string
        tables were placed lists the strings in the JSON manifest
        instead, and that list is returned as it is.  Anything else
        raises :class:`SnapshotUnavailable`.
        """
        table = self._manifest.get(key)
        if isinstance(table, dict):
            return self.strings(table, key)
        if isinstance(table, list) and all(isinstance(value, str) for value in table):
            return table
        raise SnapshotUnavailable(f"snapshot {self._name!r} carries no {key} table")

    def manifest_array(self, key: str) -> np.ndarray:
        """Zero-copy view of a top-level manifest array by key (memoised)."""
        return self.memoised(("array", key), lambda: self.array(self._manifest[key]))

    def graph_columns(self) -> "LogColumns":
        """The segment's column log, copied out of the buffer.

        Only valid on ``"kind": "graph-triples"`` segments.  The arrays
        are copies (a graph owns its log and outlives the mapping) and
        nothing is cross-checked here — callers run
        :meth:`~repro.kg.columns.LogColumns.check` on the result.  An
        identifier table saved before the tables were sorted (no
        ``rank``) is sorted here, once.
        """
        if self._manifest.get("kind") != "graph-triples":
            raise SnapshotUnavailable("segment does not carry a graph's triples")
        try:
            tables = {}
            ranks = {}
            for name, table in self._manifest["tables"].items():
                if name not in ID_TABLES:  # read a string at a time, listed on demand
                    tables[name] = (
                        self.string_column(table, name),
                        np.array(self.array(table["stamps"])),
                    )
                    continue
                strings = self.strings(table, name)
                if "rank" in table:
                    ranks[name] = np.array(self.array(table["rank"]))
                else:  # saved before the identifier tables were sorted
                    strings, ranks[name] = rank_strings(strings)
                tables[name] = (strings, np.array(self.array(table["stamps"])))
            return LogColumns(
                triples=int(self._manifest["triples"]),
                tables=tables,
                rows={
                    name: np.array(self.array(desc))
                    for name, desc in self._manifest["rows"].items()
                },
                ranks=ranks,
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
def _string_arrays(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``(UTF-8 bytes end to end, lengths in characters)`` of a string table."""
    text = "".join(strings).encode("utf-8", "surrogatepass")
    return (
        np.frombuffer(text, dtype=np.uint8),
        np.fromiter(map(len, strings), dtype=np.int64, count=len(strings)),
    )


def place_strings(place, strings: list[str]) -> dict[str, object]:
    """Place a string table: UTF-8 bytes end to end plus lengths in characters.

    Length-coded, so a string may contain any character; decoded by
    :meth:`SegmentView.strings`.
    """
    text, lengths = _string_arrays(strings)
    return {"text": place(text), "lengths": place(lengths)}


def strings_crc(strings: list[str]) -> int:
    """CRC-32 of a string table as :func:`place_strings` lays it out."""
    text, lengths = _string_arrays(strings)
    return zlib.crc32(lengths, zlib.crc32(text))


#: The ``graph-triples`` table each identifier table of another segment
#: may reference.
REFERENCED_TABLES = {
    "entity_ids": "entities", "doc_ids": "entities", "predicates": "predicates", "type_ids": "types",
}


class Dictionary:
    """The identifier tables of a saved system's ``graph-triples`` segment.

    ``tables`` maps ``entities`` / ``predicates`` / ``types`` to their
    ascending identifiers, and ``ordinal_of`` is the entity map a load
    adopted with them.  Every other segment stores an identifier table
    equal to one of them as a reference to it — the table's count and
    CRC-32 (:func:`strings_crc`), :meth:`place` — and a load resolves it
    back to the very list (:meth:`resolve`), so every structure of a
    loaded system numbers its identifiers with one list and one map.
    """

    def __init__(
        self, tables: dict[str, list[str]] | None = None, ordinal_of: "OrdinalMap | None" = None
    ) -> None:
        self.tables = tables or {}
        self.ordinal_of = ordinal_of
        self._crcs: dict[str, int] = {}

    def crc(self, name: str) -> int:
        crc = self._crcs.get(name)
        if crc is None:
            crc = self._crcs[name] = strings_crc(self.tables[name])
        return crc

    def place(self, place, key: str, strings: list[str]) -> dict[str, object]:
        """Identifier table ``key``: a reference when it is the dictionary's table."""
        name = REFERENCED_TABLES[key]
        table = self.tables.get(name)
        if table is not None and (strings is table or strings == table):
            return {"count": len(table), "crc": self.crc(name)}
        return place_strings(place, strings)

    def resolve(self, view: SegmentView, key: str) -> list[str]:
        """A segment's identifier table ``key``, as the dictionary's list when equal.

        A reference must name the dictionary's table by count and CRC,
        or :class:`SnapshotUnavailable` is raised; a segment that lists
        its own table (one that differs, or saved before references)
        decodes it, and a list equal to the dictionary's is swapped for
        that.
        """
        name = REFERENCED_TABLES[key]
        table = self.tables.get(name)
        stored = view.manifest.get(key)
        if isinstance(stored, dict) and "count" in stored:
            if table is None or (stored.get("count"), stored.get("crc")) != (
                len(table), self.crc(name)
            ):
                raise SnapshotUnavailable(
                    f"snapshot's {key} reference names another {name} table"
                )
            return table
        strings = view.string_table(key)
        return table if table is not None and strings == table else strings

    def ordinals(self, ids: list[str]) -> "OrdinalMap | None":
        """The adopted entity map when ``ids`` is the dictionary's entity table."""
        return self.ordinal_of if ids is self.tables.get("entities") else None


#: The payload kind of an index segment: one posting CSR per field.
INDEX_KIND = "fielded-index"


def encode_index_snapshot(
    index: "FieldedIndex", dictionary: Dictionary | None = None
) -> tuple[dict[str, object], SegmentBuilder]:
    """Serialise one index epoch into ``(manifest, builder)``.

    Each field becomes one CSR over document ordinals: its terms as a
    string table in ascending order (placed once for fields with the
    same terms), ``offsets`` into one int64 ``ordinals`` column and one
    int64 ``frequencies`` column, plus its int64 length column.  The
    document ids are a reference to the
    ``dictionary``'s entity table when they are the graph's entities,
    and a string table in ordinal order otherwise.  So the manifest
    holds O(fields) descriptors whatever the vocabulary.  The CSRs are
    the epoch's with its written documents merged
    (:meth:`~repro.index.fielded_index.FieldedIndex.stored_columns`).
    """
    documents, columns = index.stored_columns()
    builder = SegmentBuilder()
    place = builder.place
    manifest: dict[str, object] = {
        "uid": index.uid,
        "epoch": index.epoch,
        "kind": INDEX_KIND,
        "num_documents": len(documents.doc_ids),
        "fields": list(index.fields),
        "lengths": {},
        "postings": {},
        "doc_ids": (dictionary or Dictionary()).place(place, "doc_ids", documents.doc_ids),
    }
    placed: list[tuple[list[str], dict[str, object]]] = []  # fields may share a vocabulary
    for field in index.fields:
        csr = columns[field]
        table = next((table for known, table in placed if known == csr.terms), None)
        if table is None:
            table = place_strings(place, csr.terms)
            placed.append((csr.terms, table))
        manifest["lengths"][field] = place(csr.lengths)
        manifest["postings"][field] = {
            "terms": table,
            "offsets": place(csr.offsets),
            "ordinals": place(csr.ordinals),
            "frequencies": place(csr.frequencies),
        }
    return manifest, builder


def encode_feature_tables(
    source, tables: "ColumnarFeatureTables", dictionary: Dictionary | None = None
) -> tuple[dict[str, object], SegmentBuilder]:
    """Serialise one epoch's columnar feature tables into ``(manifest, builder)``.

    Layout (kind ``"feature-tables"``): the entity identifiers, the edge
    predicates and the types, in ordinal order, each a reference to the
    ``dictionary``'s table when equal to it and a string table
    (:func:`place_strings`) otherwise; the int64 ``feature_codes``
    column, one sorted code per feature (see
    :class:`~repro.features.columnar.ColumnarFeatureTables`); the holder
    CSR (``holder_offsets`` / ``holder_ordinals``); the dominant-type
    ordinals, type populations and the entity→type membership CSR
    (``member_offsets`` / ``member_type_ords``).  So the manifest holds
    a fixed number of descriptors whatever the corpus: a cold-starting
    process decodes arrays, and names a feature only when a response
    returns it.  ``source`` is anything with ``uid``/``epoch`` pinning
    the publishing feature index's uid and the *tables'* epoch.
    """
    builder = SegmentBuilder()
    place = builder.place
    dictionary = dictionary or Dictionary()
    manifest: dict[str, object] = {
        "uid": source.uid,
        "epoch": source.epoch,
        "kind": "feature-tables",
        "num_entities": tables.num_entities,
        "entity_ids": dictionary.place(place, "entity_ids", tables.entity_ids),
        "predicates": dictionary.place(place, "predicates", tables.predicates),
        "type_ids": dictionary.place(place, "type_ids", tables.type_ids),
        "feature_codes": place(tables.feature_codes),
        "holder_offsets": place(tables.holder_offsets),
        "holder_ordinals": place(tables.holder_ordinals),
        "dominant_ords": place(tables.dominant_ords),
        "type_populations": place(tables.type_populations),
        "member_offsets": place(tables.member_offsets),
        "member_type_ords": place(tables.member_type_ords),
    }
    return manifest, builder


def encode_graph_triples(
    source, columns: "LogColumns"
) -> tuple[dict[str, object], SegmentBuilder]:
    """Serialise one graph's whole column log into ``(manifest, builder)``.

    The durable form of the graph itself (kind ``"graph-triples"``): the
    three stamped row logs as they are, and each string table as its
    strings' UTF-8 bytes end to end plus their lengths in characters and
    their stamps — length-coded, so a string may contain any character.
    The identifier tables go out ascending with each code's ``rank``
    among them: they are the system's :class:`Dictionary`, which the
    other segments reference.  ``source`` is anything with
    ``uid``/``epoch``; the manifest also records the triple count the
    rows must add up to.
    """
    builder = SegmentBuilder()
    place = builder.place
    tables = {}
    for name, (strings, stamps) in columns.tables.items():
        table = {
            **place_strings(place, strings),
            "stamps": place(np.asarray(stamps, dtype=np.int64)),
        }
        if name in columns.ranks:
            table["rank"] = place(columns.ranks[name])
        tables[name] = table
    return {
        "uid": source.uid,
        "epoch": source.epoch,
        "kind": "graph-triples",
        "triples": columns.triples,
        "tables": tables,
        "rows": {name: place(rows) for name, rows in columns.rows.items()},
    }, builder
