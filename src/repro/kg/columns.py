"""The append-only, ordinal-coded column log of one knowledge graph.

A semantic feature *is* an edge — ``<s, p, o>`` means ``s`` holds
``(o, p, object_of)`` and ``o`` holds ``(s, p, subject_of)`` — so the
holder CSR of :class:`~repro.features.columnar.ColumnarFeatureTables` and
the in/out CSR of :class:`~repro.kg.topology.GraphTopology` are the same
edge rows in three sort orders.  :class:`EdgeColumnLog` keeps those rows
once, as integer columns, so both per-epoch structures are built by
array sorts instead of per-entity walks over the graph's dictionaries:

* first-seen **string tables** for entities, edge predicates and types
  (a string's code is its position in the table);
* ``(subject, predicate, object)`` code rows for object-property triples
  and ``(entity, type)`` code rows for ``rdf:type`` triples;
* every table entry and row **stamped** with the position, in the
  graph's append-only triple log, of the triple that introduced it.

Every other triple — literals with their datatype and language tags,
``dct:subject`` categories, redirects and disambiguations — is logged
too, as ``(subject, predicate, object, datatype, language)`` rows over a
fourth string table, so the three row logs merged by stamp *are* the
triple log.  That makes the columns the durable form of a graph
(:class:`LogColumns`, what the ``graph-triples`` segment stores): a
graph adopts saved columns, builds its entity tables from them in bulk
(:meth:`EdgeColumnLog.entity_tables`) and decodes the rows back into
:class:`~repro.kg.triple.Triple` objects (:meth:`EdgeColumnLog.triples`)
only when a caller needs its triple access paths.

The log is caught up lazily from the triples it has not consumed yet,
under the graph's mutation lock, so writes stay as cheap as they were.
Because stamps only grow, the state of *any* epoch is a prefix — the
entries whose stamp is below that epoch's triple count — which is what
lets a pinned feature snapshot build the tables of its own epoch after
the graph has moved on.  :meth:`EdgeColumnLog.epoch` re-codes that
prefix into the sorted-identifier ordinals both structures use (ordinal
order == string order, the ranking tie-break): derived from the
memoised previous epoch when it is an earlier one — the strings and rows
stamped since are spliced and merged in — and cut and sorted otherwise.
The helpers below (:func:`merge_rows`, :func:`csr_merge`) are how the
feature tables and the topology derive their own arrays the same way.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..utils.ordinals import OrdinalMap
from .namespaces import DCT_SUBJECT, DISAMBIGUATES, RDFS_LABEL, RDF_TYPE, REDIRECT
from .triple import Literal, Triple


def _pack(sizes: Sequence[int], columns: Sequence[np.ndarray]) -> tuple[list[int], np.ndarray]:
    """``(radices, keys)``: each row as one mixed-radix int64, first column most significant."""
    radices = [max(size, 1) for size in sizes]
    if math.prod(radices) > np.iinfo(np.int64).max:
        raise OverflowError(f"rows of radices {radices} do not pack into int64")
    keys = columns[0]
    for radix, column in zip(radices[1:], columns[1:]):
        keys = keys * radix + column
    return radices, keys


def sort_rows(sizes: Sequence[int], *columns: np.ndarray) -> list[np.ndarray]:
    """Parallel ordinal columns with their rows in lexicographic order.

    ``sizes[i]`` bounds ``columns[i]`` (values in ``[0, sizes[i])``).  The
    rows are packed into one mixed-radix int64 each, first column most
    significant, sorted as plain integers and unpacked again — an order
    of magnitude faster than ``np.lexsort`` on the same columns.
    """
    radices, keys = _pack(sizes, columns)
    keys = np.sort(keys)
    unpacked = []
    for radix in reversed(radices[1:]):
        keys, column = np.divmod(keys, radix)
        unpacked.append(column)
    unpacked.append(keys)
    return unpacked[::-1]


def merge_rows(
    sizes: Sequence[int], ordered: Sequence[np.ndarray], *columns: np.ndarray
) -> list[np.ndarray]:
    """``sort_rows(sizes, *(ordered + columns))`` when ``ordered`` is sorted already.

    The rows ``columns`` add are sorted on their own and inserted at
    their ``searchsorted`` positions among the packed ``ordered`` rows:
    O(rows) array copies instead of a sort of them all.  Flat rows;
    :func:`csr_merge` is the same for a CSR, and searches only the rows
    that gain entries.
    """
    added = sort_rows(sizes, *columns)
    positions = np.searchsorted(_pack(sizes, ordered)[1], _pack(sizes, added)[1])
    return [np.insert(column, positions, more) for column, more in zip(ordered, added)]


def csr_merge(
    counts: np.ndarray,
    columns: Sequence[np.ndarray],
    sizes: Sequence[int],
    rows: np.ndarray,
    *added: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """A CSR with entries added: ``(offsets, columns)`` of the merged CSR.

    ``counts[row]`` is how many of the CSR's entries ``columns`` holds in
    each row, in row order, each row's entries sorted by ``columns``
    (bounded by ``sizes``).  Entry ``i`` of ``added`` goes into row
    ``rows[i]`` at its place in that order.  Only the rows that gain
    entries are searched; everything else is O(rows + entries) array
    copies, never a sort of the whole CSR.
    """
    num_rows = counts.size
    radix = math.prod(max(size, 1) for size in sizes)
    rows, *added = sort_rows((num_rows, *sizes), rows, *added)  # checks radix · rows
    offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(counts + np.bincount(rows, minlength=num_rows), out=offsets[1:])
    # The old entries of a touched row start where the merged row starts,
    # less the added entries of the rows before it.
    touched, first = np.unique(rows, return_index=True)
    starts = offsets[touched] - first
    lengths = counts[touched]
    ends = np.cumsum(lengths)
    held = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64) + np.repeat(
        starts - (ends - lengths), lengths
    )
    # Packed (row, entry) keys of the touched rows' entries and of the
    # added ones: an added entry lands after the entries of its row that
    # sort before it.
    held_keys = np.repeat(touched, lengths) * radix + _pack(sizes, [c[held] for c in columns])[1]
    row_keys = rows * radix
    within = np.searchsorted(held_keys, row_keys + _pack(sizes, added)[1]) - np.searchsorted(
        held_keys, row_keys
    )
    positions = np.repeat(starts, np.diff(np.append(first, rows.size))) + within
    return offsets, [np.insert(column, positions, more) for column, more in zip(columns, added)]


def csr_offsets(rows: np.ndarray, num_rows: int) -> np.ndarray:
    """CSR offsets (length ``num_rows + 1``) of entries keyed by row ordinal."""
    offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=offsets[1:])
    return offsets


def csr_gather(offsets: np.ndarray, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenate the CSR rows selected by ``rows`` (one vectorized pass)."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return values[:0]
    if total == rows.size and int(lengths.min()) == 1:
        return values[starts]  # every row holds exactly one value
    ends = np.cumsum(lengths)
    return values[np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - lengths), lengths)]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: a sort and one comparison pass.

    Several times faster than ``np.unique`` on the ordinal arrays of one
    request (a few to a few thousand values).
    """
    values = np.sort(values)
    if values.size < 2:
        return values
    fresh = np.empty(values.size, dtype=bool)
    fresh[0] = True
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return values[fresh]


def unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct ascending values, position of each input value among them)``."""
    distinct = sorted_unique(values)
    return distinct, np.searchsorted(distinct, values)


def isin_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Per needle: does the ascending ``haystack`` contain it? (one ``searchsorted``)."""
    if not haystack.size:
        return np.zeros(needles.shape, dtype=bool)
    positions = np.minimum(np.searchsorted(haystack, needles), haystack.size - 1)
    return haystack[positions] == needles


class _StringTable:
    """Strings coded in first-seen order, each stamped with its log position.

    The ``string → code`` dictionary grows with the table and is never
    rebuilt, so every epoch's :class:`~repro.utils.ordinals.OrdinalMap`
    borrows it (read only) as the first half of ``string → ordinal``.
    """

    __slots__ = ("strings", "stamps", "_codes")

    def __init__(self, strings: list[str] | None = None, stamps: list[int] | None = None) -> None:
        self.strings: list[str] = [] if strings is None else strings
        self.stamps: list[int] = [] if stamps is None else stamps
        #: ``string → code``; an adopted table builds it when the first
        #: write after the adoption needs it.
        self._codes: dict[str, int] | None = {} if strings is None else None

    def codes(self) -> dict[str, int]:
        """``string → code`` (lock held: writes extend it)."""
        codes = self._codes
        if codes is None:
            codes = self._codes = dict(zip(self.strings, range(len(self.strings))))
        return codes

    def code(self, value: str, position: int) -> int:
        codes = self.codes()
        code = codes.get(value)
        if code is None:
            code = codes[value] = len(self.strings)
            self.strings.append(value)
            self.stamps.append(position)
        return code

    def ranked(self, triples: int) -> tuple[list[str], np.ndarray]:
        """The strings introduced by the first ``triples`` triples, sorted,
        plus the ``code → sorted ordinal`` permutation."""
        strings = self.strings[: bisect_left(self.stamps, triples)]
        order = sorted(range(len(strings)), key=strings.__getitem__)
        rank = np.empty(len(strings), dtype=np.int64)
        rank[order] = np.arange(len(strings), dtype=np.int64)
        return [strings[code] for code in order], rank

    def extended(
        self, ranked: list[str], rank: np.ndarray, triples: int
    ) -> tuple[list[str], np.ndarray, np.ndarray | None]:
        """:meth:`ranked` at ``triples``, from its result at an earlier epoch.

        ``ranked`` and ``rank`` are that result; the strings stamped since
        are sorted on their own, bisected into ``ranked`` and spliced in.
        Returns the new pair plus the ``old ordinal → new ordinal`` map
        (monotone; ``None`` when no string was added).
        """
        known, count = rank.size, bisect_left(self.stamps, triples)
        if count == known:
            return ranked, rank, None
        added = sorted(range(known, count), key=self.strings.__getitem__)
        merged: list[str] = []
        positions = []
        start = 0
        for code in added:
            string = self.strings[code]
            position = bisect_left(ranked, string, start)
            merged.extend(ranked[start:position])
            merged.append(string)
            positions.append(position)
            start = position
        merged.extend(ranked[start:])
        inserted = np.asarray(positions, dtype=np.int64)
        # An old string moves up by the number of strings inserted before it.
        remap = np.arange(known, dtype=np.int64) + np.cumsum(
            np.bincount(inserted, minlength=known + 1)
        )[:known]
        extended = np.empty(count, dtype=np.int64)
        extended[:known] = remap[rank]
        extended[added] = inserted + np.arange(inserted.size, dtype=np.int64)
        return merged, extended, remap


class _RowLog:
    """Growable int64 rows stored column-wise; the last column is the stamp.

    Appends only write past the current length (growing reallocates and
    leaves the old buffer to its holders), so prefix views stay valid —
    and an adopted array, exactly as long as its rows, is never written.
    """

    __slots__ = ("_data", "_length")

    def __init__(self, width: int, rows: np.ndarray | None = None) -> None:
        self._data = np.empty((width, 1024), dtype=np.int64) if rows is None else rows
        self._length = 0 if rows is None else rows.shape[1]

    def extend(self, rows: list[tuple[int, ...]]) -> None:
        if not rows:
            return
        end = self._length + len(rows)
        if end > self._data.shape[1]:
            grown = np.empty((self._data.shape[0], 2 * end), dtype=np.int64)
            grown[:, : self._length] = self._data[:, : self._length]
            self._data = grown
        self._data[:, self._length : end] = np.asarray(rows, dtype=np.int64).T
        self._length = end

    def rows(self) -> np.ndarray:
        """Every row logged so far, stamps included (a view)."""
        return self._data[:, : self._length]

    def prefix(self, triples: int) -> np.ndarray:
        """The value columns of the rows stamped below ``triples``."""
        stamps = self._data[-1, : self._length]
        return self._data[:-1, : int(np.searchsorted(stamps, triples))]


#: Names of the four string tables and three row logs of a log, in the
#: order :class:`LogColumns` lists them; the row widths include the stamp.
TABLE_NAMES = ("entities", "predicates", "types", "strings")
ROW_WIDTHS = {"edges": 4, "typed": 3, "others": 6}


@dataclass(frozen=True)
class LogColumns:
    """A whole column log as plain strings and arrays — its durable form.

    ``tables`` maps each of :data:`TABLE_NAMES` to ``(strings, stamps)``
    and ``rows`` each of :data:`ROW_WIDTHS` to a 2-D int64 array whose
    last row is the stamps.  ``edges`` rows are ``(subject, predicate,
    object)`` over the entity and edge-predicate tables, ``typed`` rows
    ``(entity, type)``, and ``others`` rows ``(subject, predicate,
    object, datatype, language)`` with the predicate, datatype and
    language coded in the ``strings`` table: a literal row's object is
    its value (a string code), and a row with datatype ``-1`` is a
    ``dct:subject`` (object a string code) or a redirect/disambiguation
    (object an entity code).
    """

    triples: int
    tables: dict[str, tuple[list[str], list[int]]]
    rows: dict[str, np.ndarray]

    def check(self) -> None:
        """Raise :class:`ValueError` unless the rows are ``triples`` log entries.

        What adopting relies on and a checksum cannot promise: the three
        stamp columns are each increasing and together number the
        positions ``0 .. triples - 1`` once each, every table's stamps
        are sorted, and every code points inside its table.
        """
        if set(self.tables) != set(TABLE_NAMES) or set(self.rows) != set(ROW_WIDTHS):
            raise ValueError("column log lacks a table or a row log")
        sizes = {}
        for name, (strings, stamps) in self.tables.items():
            sizes[name] = len(strings)
            if len(stamps) != len(strings) or stamps != sorted(stamps):
                raise ValueError(f"string table {name!r} is not stamped in log order")
        for name, width in ROW_WIDTHS.items():
            rows = self.rows[name]
            if rows.dtype != np.int64 or rows.ndim != 2 or rows.shape[0] != width:
                raise ValueError(f"row log {name!r} is misshapen")
            if rows.shape[1] > 1 and not (np.diff(rows[-1]) > 0).all():
                raise ValueError(f"row log {name!r} is not in log order")
        stamps = np.sort(np.concatenate([self.rows[name][-1] for name in ROW_WIDTHS]))
        if not np.array_equal(stamps, np.arange(self.triples)):
            raise ValueError(f"rows do not number {self.triples} triples")
        edges, typed, others = (self.rows[name] for name in ROW_WIDTHS)
        literal = others[3] >= 0
        categories = ~literal & (others[1] == _find(self.tables["strings"][0], DCT_SUBJECT))
        bounded = (
            (edges[0], "entities"), (edges[1], "predicates"), (edges[2], "entities"),
            (typed[0], "entities"), (typed[1], "types"),
            (others[0], "entities"), (others[1], "strings"),
            (others[2][literal | categories], "strings"),
            (others[2][~literal & ~categories], "entities"),
            (others[3][literal], "strings"), (others[4][literal], "strings"),
        )
        for codes, table in bounded:
            if codes.size and (codes.min() < 0 or codes.max() >= sizes[table]):
                raise ValueError(f"a row points outside the {table!r} table")


def _find(strings: list[str], value: str) -> int:
    """The code of ``value`` in a first-seen table (``-1`` when absent)."""
    try:
        return strings.index(value)
    except ValueError:
        return -1


@dataclass(frozen=True)
class EpochColumns:
    """One epoch of the log, re-coded into sorted-identifier ordinals.

    Shared by the two structures built from it.  Edge rows are in log
    order (each consumer sorts them the way its layout needs; the rows of
    an earlier epoch are a prefix); type memberships are sorted by
    ``(entity, type)``.  The ``*_rank`` arrays map a table's first-seen
    codes to this epoch's ordinals: what ``ordinal_of`` reads (through
    the log's append-only code dictionary, which it borrows read only,
    so no epoch builds a dictionary of its own) and what
    :meth:`ordinal_maps` compares.
    """

    triples: int
    entity_ids: list[str]
    ordinal_of: OrdinalMap
    predicates: list[str]
    type_ids: list[str]
    edge_subjects: np.ndarray
    edge_predicates: np.ndarray
    edge_objects: np.ndarray
    typed_entities: np.ndarray
    typed_types: np.ndarray
    entity_rank: np.ndarray
    predicate_rank: np.ndarray
    type_rank: np.ndarray

    def ordinal_maps(self, older: "EpochColumns") -> tuple[np.ndarray, np.ndarray]:
        """``old ordinal → ordinal here`` for the entities and the edge predicates.

        ``older`` is an earlier epoch of the same log, so its strings are
        the first codes of each table and both maps are monotone: rows
        sorted by old ordinals stay sorted when mapped.
        """
        maps = []
        for rank, old in (
            (self.entity_rank, older.entity_rank), (self.predicate_rank, older.predicate_rank)
        ):
            mapped = np.empty(old.size, dtype=np.int64)
            mapped[old] = rank[: old.size]
            maps.append(mapped)
        return maps[0], maps[1]


class EdgeColumnLog:
    """The column log of one graph (see the module docstring).

    Holds the graph's triple list and mutation lock by reference;
    :class:`~repro.kg.graph.KnowledgeGraph` creates one per instance and
    hands it out through ``graph.columns``.  A log made from saved
    columns (``adopted``) starts with every one of them consumed and no
    triple list; the graph binds the list it decodes from this log
    (:meth:`triples`) before it accepts a write.
    """

    def __init__(
        self,
        triples: list[Triple],
        lock: threading.RLock,
        adopted: LogColumns | None = None,
    ) -> None:
        self._triples = triples
        self._lock = lock
        self._consumed = 0 if adopted is None else adopted.triples
        self._entities, self._predicates, self._types, self._strings = (
            _StringTable(*(() if adopted is None else adopted.tables[name]))
            for name in TABLE_NAMES
        )
        self._edges, self._typed, self._others = (
            _RowLog(width, None if adopted is None else adopted.rows[name])
            for name, width in ROW_WIDTHS.items()
        )
        self._memo: EpochColumns | None = None

    def bind(self, triples: list[Triple]) -> None:
        """Take the triple list an adopted log's graph has decoded (lock held)."""
        self._triples = triples

    def _catch_up(self) -> None:
        """Consume the triples appended since the last call (lock held).

        Mirrors ``KnowledgeGraph._add_triple_locked`` case for case: what
        makes an identifier an entity, an edge or a type membership is
        decided there, and only repeated here in code form.
        """
        entity, predicate_code, type_code, string = (
            self._entities.code, self._predicates.code, self._types.code, self._strings.code,
        )
        edges: list[tuple[int, ...]] = []
        typed: list[tuple[int, ...]] = []
        others: list[tuple[int, ...]] = []
        start = self._consumed
        for position, triple in enumerate(self._triples[start:], start):
            subject = entity(triple.subject, position)
            predicate, obj = triple.predicate, triple.object
            if triple.is_literal:
                others.append((
                    subject, string(predicate, position), string(obj.value, position),
                    string(obj.datatype, position), string(obj.language, position), position,
                ))
            elif predicate == RDF_TYPE:
                typed.append((subject, type_code(obj, position), position))
            elif predicate == DCT_SUBJECT:
                others.append(
                    (subject, string(predicate, position), string(obj, position), -1, -1, position)
                )
            elif predicate == REDIRECT or predicate == DISAMBIGUATES:
                others.append(
                    (subject, string(predicate, position), entity(obj, position), -1, -1, position)
                )
            else:
                edges.append(
                    (subject, predicate_code(predicate, position), entity(obj, position), position)
                )
        self._edges.extend(edges)
        self._typed.extend(typed)
        self._others.extend(others)
        self._consumed = max(start, len(self._triples))

    # ------------------------------------------------------------------ #
    # The whole log: saving, adopting, decoding
    # ------------------------------------------------------------------ #
    def export(self) -> LogColumns:
        """The log caught up with the graph, as plain strings and arrays.

        The arrays are views of the live buffers and the lists the live
        tables: encode them before the graph's lock is released.
        """
        with self._lock:
            self._catch_up()
            tables = (self._entities, self._predicates, self._types, self._strings)
            logs = (self._edges, self._typed, self._others)
            return LogColumns(
                triples=self._consumed,
                tables={
                    name: (table.strings, table.stamps) for name, table in zip(TABLE_NAMES, tables)
                },
                rows={name: log.rows() for name, log in zip(ROW_WIDTHS, logs)},
            )

    def entity_tables(
        self,
    ) -> tuple[set[str], dict[str, list[str]], dict[str, set[str]], dict[str, set[str]]]:
        """``(entities, labels, entity → types, type → members)`` of the log.

        What ``KnowledgeGraph._add_triple_locked`` accumulates in those
        four containers, grouped out of the columns instead: one pass over
        the label rows and one over the type rows, none over the triples.
        """
        with self._lock:
            self._catch_up()
            entity_ids, type_ids = self._entities.strings, self._types.strings
            strings = self._strings.strings
            subjects, predicates, values, datatypes, _, _ = self._others.rows()
            labelled = (predicates == _find(strings, RDFS_LABEL)) & (datatypes >= 0)
            labels: dict[str, list[str]] = {}
            for subject, value in zip(subjects[labelled].tolist(), values[labelled].tolist()):
                labels.setdefault(entity_ids[subject], []).append(strings[value])
            typed_entities, typed_types, _ = self._typed.rows()
            types: dict[str, set[str]] = {}
            members: dict[str, set[str]] = {}
            for entity, type_code in zip(typed_entities.tolist(), typed_types.tolist()):
                entity_id, type_id = entity_ids[entity], type_ids[type_code]
                types.setdefault(entity_id, set()).add(type_id)
                members.setdefault(type_id, set()).add(entity_id)
            return set(entity_ids), labels, types, members

    def triples(self) -> list[Triple]:
        """The logged triples, decoded back into objects in log order."""
        with self._lock:
            self._catch_up()
            entity_ids, strings = self._entities.strings, self._strings.strings
            predicates, type_ids = self._predicates.strings, self._types.strings
            decoded: list[Triple | None] = [None] * self._consumed
            for subject, predicate, obj, stamp in zip(*self._edges.rows().tolist()):
                decoded[stamp] = Triple(entity_ids[subject], predicates[predicate], entity_ids[obj])
            for entity, type_code, stamp in zip(*self._typed.rows().tolist()):
                decoded[stamp] = Triple(entity_ids[entity], RDF_TYPE, type_ids[type_code])
            for subject, predicate, obj, datatype, language, stamp in zip(
                *self._others.rows().tolist()
            ):
                name = strings[predicate]
                if datatype >= 0:
                    target: str | Literal = Literal(strings[obj], strings[datatype], strings[language])
                else:
                    target = strings[obj] if name == DCT_SUBJECT else entity_ids[obj]
                decoded[stamp] = Triple(entity_ids[subject], name, target)
            return decoded  # type: ignore[return-value]

    def epoch(self, triples: int) -> EpochColumns:
        """The columns of the graph state after its first ``triples`` triples.

        The latest epoch asked for is memoised, so the feature tables and
        the topology of one epoch share one ordinal table, and a later
        epoch is derived from it (:meth:`_extend`) instead of being cut
        and sorted out of the whole log again; an earlier one is cut and
        sorted (:meth:`_cut`) and leaves the memo alone.
        """
        with self._lock:
            memo = self._memo
            if memo is not None and memo.triples == triples:
                return memo
            if self._consumed < triples:
                self._catch_up()
            if self._consumed < triples:
                raise ValueError(
                    f"epoch of {triples} triples requested, the graph has {self._consumed}"
                )
            if memo is not None and memo.triples > triples:
                return self._cut(triples)
            columns = self._cut(triples) if memo is None else self._extend(memo, triples)
            self._memo = columns
            return columns

    def _cut(self, triples: int) -> EpochColumns:
        """Cut the epoch's prefix out of the log and sort it (lock held)."""
        entity_ids, entity_rank = self._entities.ranked(triples)
        predicates, predicate_rank = self._predicates.ranked(triples)
        type_ids, type_rank = self._types.ranked(triples)
        subjects, edge_predicates, objects = self._edges.prefix(triples)
        typed_entities, typed_types = self._typed.prefix(triples)
        typed_entities, typed_types = sort_rows(
            (len(entity_ids), len(type_ids)), entity_rank[typed_entities], type_rank[typed_types]
        )
        return EpochColumns(
            triples=triples,
            entity_ids=entity_ids,
            ordinal_of=OrdinalMap(entity_ids, self._entities.codes(), entity_rank),
            predicates=predicates,
            type_ids=type_ids,
            edge_subjects=entity_rank[subjects],
            edge_predicates=predicate_rank[edge_predicates],
            edge_objects=entity_rank[objects],
            typed_entities=typed_entities,
            typed_types=typed_types,
            entity_rank=entity_rank,
            predicate_rank=predicate_rank,
            type_rank=type_rank,
        )

    def _extend(self, memo: EpochColumns, triples: int) -> EpochColumns:
        """The epoch at ``triples`` from an earlier one: what the log added since (lock held).

        The strings stamped since are spliced into the sorted tables; one
        gather per column re-codes the earlier epoch's rows through the
        monotone old → new ordinal maps, the rows logged since are coded
        with the new ranks and appended (edges, log order) or merged
        (type memberships, sorted).  Equal to :meth:`_cut`, array for
        array.
        """
        entity_ids, entity_rank, entity_remap = self._entities.extended(
            memo.entity_ids, memo.entity_rank, triples
        )
        predicates, predicate_rank, predicate_remap = self._predicates.extended(
            memo.predicates, memo.predicate_rank, triples
        )
        type_ids, type_rank, type_remap = self._types.extended(
            memo.type_ids, memo.type_rank, triples
        )

        def recoded(remap: np.ndarray | None, column: np.ndarray) -> np.ndarray:
            return column if remap is None else remap[column]

        subjects, added_predicates, objects = self._edges.prefix(triples)[
            :, memo.edge_subjects.size :
        ]
        typed_entities, typed_types = self._typed.prefix(triples)[:, memo.typed_entities.size :]
        typed_entities, typed_types = merge_rows(
            (len(entity_ids), len(type_ids)),
            (recoded(entity_remap, memo.typed_entities), recoded(type_remap, memo.typed_types)),
            entity_rank[typed_entities],
            type_rank[typed_types],
        )
        return EpochColumns(
            triples=triples,
            entity_ids=entity_ids,
            ordinal_of=(
                memo.ordinal_of
                if entity_remap is None
                else OrdinalMap(entity_ids, self._entities.codes(), entity_rank)
            ),
            predicates=predicates,
            type_ids=type_ids,
            edge_subjects=np.concatenate(
                (recoded(entity_remap, memo.edge_subjects), entity_rank[subjects])
            ),
            edge_predicates=np.concatenate(
                (recoded(predicate_remap, memo.edge_predicates), predicate_rank[added_predicates])
            ),
            edge_objects=np.concatenate(
                (recoded(entity_remap, memo.edge_objects), entity_rank[objects])
            ),
            typed_entities=typed_entities,
            typed_types=typed_types,
            entity_rank=entity_rank,
            predicate_rank=predicate_rank,
            type_rank=type_rank,
        )


__all__ = [
    "EdgeColumnLog",
    "EpochColumns",
    "LogColumns",
    "ROW_WIDTHS",
    "TABLE_NAMES",
    "csr_gather",
    "csr_merge",
    "csr_offsets",
    "isin_sorted",
    "merge_rows",
    "sort_rows",
    "sorted_unique",
    "unique_inverse",
]
