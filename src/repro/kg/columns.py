"""The append-only, ordinal-coded column log: the one form of a knowledge graph.

A semantic feature *is* an edge — ``<s, p, o>`` means ``s`` holds
``(o, p, object_of)`` and ``o`` holds ``(s, p, subject_of)`` — so one
edge CSR per epoch, :class:`~repro.kg.topology.GraphTopology`, is both the
feature tables' holder CSR and the graph's adjacency.
:class:`EdgeColumnLog` keeps the edge rows once, as integer columns, so
the per-epoch structures are built by array sorts instead of per-entity
walks:

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
triple log.  The graph writes each triple straight into them
(:meth:`EdgeColumnLog.add`) and answers every accessor from them: a row
log groups its rows by subject (and by object, or by type) in log order,
plus the few rows written since the last grouping (:class:`_RowLog`).
That makes the columns the durable form of a graph too
(:class:`LogColumns`, what the ``graph-triples`` segment stores, its
identifier tables sorted): a graph adopts saved columns as they are, and
decodes the rows back into :class:`~repro.kg.triple.Triple` objects
(:meth:`EdgeColumnLog.triples`) only for a caller that iterates them.
An adopted identifier table numbers the adopted epoch as saved, so the
one :class:`~repro.utils.ordinals.OrdinalMap` it comes with is that
epoch's.

Because stamps only grow, the state of *any* epoch is a prefix — the
entries whose stamp is below that epoch's triple count — which is what
lets a pinned feature snapshot build the tables of its own epoch after
the graph has moved on.  :meth:`EdgeColumnLog.epoch` ranks that prefix's
strings into the sorted-identifier ordinals the epoch's structures use
(ordinal order == string order, the ranking tie-break): derived from the
memoised previous epoch when it is an earlier one — the strings and type
rows stamped since are spliced and merged in — and cut and sorted
otherwise.  The epoch keeps no copy of the edge rows: it codes a range
of the log's through its ranks when asked (:meth:`EpochColumns.edge_rows`).
The helpers below are how the per-epoch structures derive from the
previous epoch's for the cost of copies plus the delta: a new string
moves every ordinal after it up by one, so re-coding sorted rows is a
slice add per insertion point (:func:`shifted`), and new rows go in by
slice copies (:func:`spliced`, :func:`merge_rows`, :func:`csr_merge`).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..utils.ordinals import OrdinalMap, strictly_ascending
from .namespaces import DCT_SUBJECT, DISAMBIGUATES, RDF_TYPE, REDIRECT
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
    return [spliced(column, positions, more) for column, more in zip(ordered, added)]


#: About how many elements a vectorised numpy pass (a mask, a ``repeat``)
#: covers in the time one Python-level slice copy takes: :func:`spliced`
#: and :func:`shifted` copy slice by slice while their cuts are fewer than
#: one per this many elements.
_ELEMENTS_PER_SLICE = 256


def spliced(array: np.ndarray, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.insert(array, positions, values)`` for ascending ``positions``.

    A few insertions are one slice copy each (``np.insert`` builds a
    mask over the whole result); ``array`` itself when there are none.
    """
    count = positions.size
    if not count:
        return array
    if count * _ELEMENTS_PER_SLICE > array.size:
        return np.insert(array, positions, values)
    out = np.empty(array.size + count, dtype=array.dtype)
    start = 0
    for moved, (at, value) in enumerate(zip(positions.tolist(), values.tolist())):
        out[start + moved : at + moved] = array[start:at]
        out[at + moved] = value
        start = at
    out[start + count :] = array[start:]
    return out


def shifted(array: np.ndarray, cuts: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``array`` with ``steps[j]`` added to every element from ``cuts[j]`` on.

    ``cuts`` ascending, within ``[0, array.size]``.  A few cuts are one
    slice add per segment between them; ``array`` itself when there are
    none.
    """
    if not cuts.size:
        return array
    bounds = np.append(cuts, array.size)
    totals = np.cumsum(steps)
    if cuts.size * _ELEMENTS_PER_SLICE > array.size:
        return array + np.repeat(np.append(0, totals), np.diff(bounds, prepend=0))
    out = np.empty_like(array)
    first = int(bounds[0])
    out[:first] = array[:first]
    for start, end, total in zip(bounds[:-1].tolist(), bounds[1:].tolist(), totals.tolist()):
        np.add(array[start:end], total, out=out[start:end])
    return out


def csr_merge(
    offsets: np.ndarray,
    columns: Sequence[np.ndarray],
    sizes: Sequence[int],
    rows: np.ndarray,
    *added: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """A CSR with entries added: ``(offsets, columns)`` of the merged CSR.

    ``offsets`` cut ``columns`` into rows, each row's entries sorted by
    ``columns`` (bounded by ``sizes``).  Entry ``i`` of ``added`` goes
    into row ``rows[i]`` at its place in that order.  Only the rows that
    gain entries are searched; the offsets shift once per such row and
    the columns are spliced (:func:`shifted`, :func:`spliced`), so the
    cost is copies plus the delta, never a sort of the whole CSR.
    """
    radix = math.prod(max(size, 1) for size in sizes)
    rows, *added = sort_rows((offsets.size - 1, *sizes), rows, *added)  # checks radix · rows
    touched, counts = runs(rows)
    # Packed (row, entry) keys of the touched rows' entries and of the
    # added ones: an added entry lands after the entries of its row that
    # sort before it.
    starts = offsets[touched]
    lengths = offsets[touched + 1] - starts
    ends = np.cumsum(lengths)
    held = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64) + np.repeat(
        starts - (ends - lengths), lengths
    )
    held_keys = np.repeat(touched, lengths) * radix + _pack(sizes, [c[held] for c in columns])[1]
    row_keys = rows * radix
    within = np.searchsorted(held_keys, row_keys + _pack(sizes, added)[1]) - np.searchsorted(
        held_keys, row_keys
    )
    positions = np.repeat(starts, counts) + within
    return shifted(offsets, touched + 1, counts), [
        spliced(column, positions, more) for column, more in zip(columns, added)
    ]


def runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct values, how many times each occurs)`` of ascending ``values``."""
    heads = np.flatnonzero(np.diff(values, prepend=-1))
    return values[heads], np.diff(np.append(heads, values.size))


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


class StringColumn(Sequence[str]):
    """A string table held as one text and each string's end, sliced per read.

    What a saved log's literal table stays: a read slices the strings it
    names, a write searches the text for its string (:meth:`index`), and
    only a save or a decode of every triple lists them (:meth:`tolist`).
    Ends count characters; the strings are indexed by code.
    """

    __slots__ = ("text", "ends")

    def __init__(self, text: str, ends: np.ndarray) -> None:
        self.text = text
        self.ends = ends

    def __len__(self) -> int:
        return int(self.ends.size)

    def __getitem__(self, code: int) -> str:  # type: ignore[override]
        ends = self.ends
        if not 0 <= code < ends.size:
            code = range(ends.size)[code]  # bounds and negative codes, as a list has them
        return self.text[ends.item(code - 1) if code else 0 : ends.item(code)]

    def tolist(self) -> list[str]:
        text, ends = self.text, self.ends.tolist()
        return [text[start:end] for start, end in zip([0, *ends], ends)]

    def index(self, value: str) -> int:  # type: ignore[override]
        """The first code of ``value``: a search of the text, not of every string."""
        if not value:
            return super().index(value)
        at = self.text.find(value)
        while at >= 0:
            code = int(np.searchsorted(self.ends, at, side="right"))
            if (int(self.ends[code - 1]) if code else 0) == at and int(
                self.ends[code]
            ) == at + len(value):
                return code
            at = self.text.find(value, at + 1)
        raise ValueError(f"{value!r} is not in the table")


def rank_strings(strings: list[str]) -> tuple[list[str], np.ndarray]:
    """``(strings ascending, code → position among them)`` of a table listed by code."""
    order = sorted(range(len(strings)), key=strings.__getitem__)
    rank = np.empty(len(strings), dtype=np.int64)
    rank[order] = np.arange(len(strings), dtype=np.int64)
    return [strings[code] for code in order], rank


class _StringTable:
    """Strings coded in first-seen order, each stamped with its log position.

    The ``string → code`` dictionary grows with the table and is never
    rebuilt, so every epoch's :class:`~repro.utils.ordinals.OrdinalMap`
    borrows it (read only) as the first half of ``string → ordinal``.

    A table adopted from saved columns keeps the saved strings as they
    came and lists only the ones written since, so neither a read nor a
    write lists the whole table.  An identifier table arrives sorted, with
    each code's rank: its ``adopted`` map numbers the strings ascending
    over the code dictionary and *is* the adopted epoch's map, so nothing
    sorts the table again.  The ``strings`` table arrives as a
    :class:`StringColumn`: its dictionary remembers what was looked up or
    written since, and a string it has not seen is searched for in the
    column.
    """

    __slots__ = (
        "_saved", "_cut", "_rank", "_saved_stamps", "_written", "_written_stamps", "_codes", "adopted",
    )

    def __init__(
        self,
        strings: Sequence[str] = (),
        stamps: Sequence[int] = (),
        rank: np.ndarray | None = None,
    ) -> None:
        self._saved = strings
        #: The first code written after the adoption.
        self._cut = len(strings)
        #: Each saved code's position in ``_saved`` (``None``: the position is the code).
        self._rank = rank
        self._saved_stamps = np.asarray(stamps, dtype=np.int64)
        self._written: list[str] = []
        self._written_stamps: list[int] = []
        #: ``string → code``; the adopted ``strings`` table's also holds
        #: ``-1`` for a string looked up and not found.
        self._codes: dict[str, int] = {}
        #: The adopted epoch's ``string → ordinal`` (``None`` unless adopted sorted).
        self.adopted: OrdinalMap | None = None
        if rank is not None:
            order = np.empty_like(rank)
            order[rank] = np.arange(rank.size, dtype=rank.dtype)
            self._codes = dict(zip(strings, order.tolist()))
            self.adopted = OrdinalMap(strings, self._codes, rank)  # type: ignore[arg-type]

    def __len__(self) -> int:
        return self._cut + len(self._written)

    def __getitem__(self, code: int) -> str:
        if code >= self._cut:
            return self._written[code - self._cut]
        return self._saved[code if self._rank is None else self._rank.item(code)]

    def decode(self, codes: Iterable[int]) -> list[str]:
        """The strings of ``codes``."""
        if not self._cut:
            return list(map(self._written.__getitem__, codes))
        return list(map(self.__getitem__, codes))

    def tolist(self) -> list[str]:
        """Every string, by code, in a new list."""
        saved = self._saved
        if self._rank is not None:
            saved = list(map(saved.__getitem__, self._rank.tolist()))
        elif isinstance(saved, StringColumn):
            saved = saved.tolist()
        return [*saved, *self._written]

    @property
    def stamps(self) -> np.ndarray:
        """Each code's log position."""
        return np.concatenate((self._saved_stamps, np.asarray(self._written_stamps, dtype=np.int64)))

    def count(self, triples: int) -> int:
        """How many strings the first ``triples`` triples introduced."""
        saved = int(np.searchsorted(self._saved_stamps, triples))
        if saved < self._cut:
            return saved
        return saved + bisect_left(self._written_stamps, triples)

    def codes(self) -> dict[str, int]:
        """``string → code`` of an identifier table (lock held: writes extend it)."""
        return self._codes

    def find(self, value: str) -> int | None:
        """The code of ``value`` (``None`` when the table lacks it)."""
        code = self._codes.get(value)
        if code is None and isinstance(self._saved, StringColumn):
            code = self._codes[value] = _find(self._saved, value)
        return None if code is None or code < 0 else code

    def code(self, value: str, position: int) -> int:
        """The code of ``value``, which the triple at ``position`` adds when new (lock held)."""
        code = self.find(value)
        if code is None:
            code = self._codes[value] = len(self)
            self._written.append(value)
            self._written_stamps.append(position)
        return code

    def ranked(self, triples: int) -> tuple[list[str], np.ndarray]:
        """The strings introduced by the first ``triples`` triples, sorted,
        plus the ``code → sorted ordinal`` permutation."""
        adopted, count = self.adopted, self.count(triples)
        if adopted is not None and count >= len(adopted):
            ranked, rank, _ = self.extended(adopted.ids, adopted.rank, triples)
            return ranked, rank
        return rank_strings(self.tolist()[:count])

    def ordinal_map(self, ranked: list[str], rank: np.ndarray) -> OrdinalMap:
        """``string → ordinal`` of the epoch whose sorted strings are ``ranked``."""
        adopted = self.adopted
        if adopted is not None and ranked is adopted.ids:
            return adopted
        return OrdinalMap(ranked, self.codes(), rank)

    def extended(
        self, ranked: list[str], rank: np.ndarray, triples: int
    ) -> tuple[list[str], np.ndarray, np.ndarray | None]:
        """:meth:`ranked` at ``triples``, from its result at an earlier epoch.

        ``ranked`` and ``rank`` are that result; the strings stamped since
        are sorted on their own, bisected into ``ranked`` and spliced in.
        Returns the new pair plus the ``old ordinal → new ordinal`` map
        (monotone; ``None`` when no string was added).
        """
        known, count = rank.size, self.count(triples)
        if count == known:
            return ranked, rank, None
        added = sorted(range(known, count), key=self.__getitem__)
        merged: list[str] = []
        positions = []
        start = 0
        for code in added:
            string = self[code]
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


def group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, order)``: row indices grouped by key, each group in row order.

    Rows logged key by key arrive grouped, which one comparison pass
    tells; otherwise each key is sorted packed above its row index's bits
    (keys and row counts far below 2**31 each, so the pack fits int64).
    """
    order = np.arange(keys.size, dtype=np.int64)
    if not (keys[1:] >= keys[:-1]).all():
        bits = keys.size.bit_length()
        order = np.sort((keys << bits) | order) & ((1 << bits) - 1)
    return csr_offsets(keys, int(keys.max()) + 1 if keys.size else 0), order


class _RowLog:
    """Growable int64 rows stored column-wise; the last column is the stamp.

    Rows adopted from saved columns stay the array they came in, never
    written; rows logged after them go to a buffer that grows by
    reallocating, which leaves the old buffer to its holders, so prefix
    views stay valid.

    The rows of one key (a subject, an object, a type) are found through
    that key column's grouping: the rows up to its last merge grouped by
    key in log order (:func:`group_rows`), plus the rows logged since,
    scanned.  A read merges again once the rows since outnumber an eighth
    of the merged ones, so a read after a write costs its key's rows plus
    the few logged since.  A write tells a duplicate by its subject
    (column 0): among the subject's merged rows, or in the set of the rows
    logged since column 0 last merged — every row, until a read groups them.
    """

    __slots__ = ("_saved", "_data", "_length", "_groups", "_recent")

    def __init__(
        self, width: int, rows: np.ndarray | None = None, keys: Sequence[int] = ()
    ) -> None:
        self._saved = np.empty((width, 0), dtype=np.int64) if rows is None else rows
        self._data = np.empty((width, 1024), dtype=np.int64)
        self._length = self._saved.shape[1]
        #: Per key column: ``(rows merged, offsets, order)`` (see :func:`group_rows`).
        self._groups: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
        #: The value rows logged since column 0 last merged.
        self._recent: set[tuple[int, ...]] = set()
        if rows is not None:  # adopted: group every key column now
            for column in {0, *keys}:
                self._group(column)

    def __len__(self) -> int:
        return self._length

    def append(self, row: tuple[int, ...], stamp: int) -> bool:
        """Log ``row`` unless it is logged already; whether it was new."""
        if row in self._recent or self._merged_holds(row):
            return False
        at = self._length - self._saved.shape[1]
        if at == self._data.shape[1]:
            grown = np.empty((self._data.shape[0], 2 * at), dtype=np.int64)
            grown[:, :at] = self._data
            self._data = grown
        self._data[:, at] = (*row, stamp)
        self._length += 1
        self._recent.add(row)
        return True

    def _span(self, start: int, end: int, columns: int | slice = slice(None)) -> np.ndarray:
        """``columns`` of the rows ``start`` to ``end``: a view unless the
        span crosses from the adopted rows into the buffer."""
        saved = self._saved.shape[1]
        if end <= saved:
            return self._saved[columns, start:end]
        if start >= saved:
            return self._data[columns, start - saved : end - saved]
        return np.concatenate(
            (self._saved[columns, start:], self._data[columns, : end - saved]), axis=-1
        )

    def _merged_holds(self, row: tuple[int, ...]) -> bool:
        group = self._groups.get(0)
        if group is None or row[0] >= group[1].size - 1:
            return False
        _, offsets, order = group
        return row[1:] in zip(*self.values(order[offsets[row[0]] : offsets[row[0] + 1]])[1:])

    def _group(self, column: int) -> tuple[int, np.ndarray, np.ndarray]:
        group = self._groups.get(column)
        if group is None or self._length - group[0] > group[0] >> 3:
            group = self._groups[column] = (
                self._length, *group_rows(self._span(0, self._length, column))
            )
            if column == 0:
                self._recent = set()
        return group

    def rows_of(self, column: int, key: int | None) -> np.ndarray:
        """The indices, in log order, of the rows whose ``column`` holds ``key``."""
        merged, offsets, order = self._group(column)
        if key is None:
            return order[:0]
        rows = order[offsets[key] : offsets[key + 1]] if key < offsets.size - 1 else order[:0]
        if merged < self._length:
            since = np.flatnonzero(self._span(merged, self._length, column) == key)
            rows = np.concatenate((rows, since + merged))
        return rows

    def values(self, rows: np.ndarray) -> list[list[int]]:
        """The value columns of ``rows`` (ascending), as lists."""
        saved = self._saved.shape[1]
        if not rows.size or rows[-1] < saved:
            return self._saved[:-1].take(rows, axis=1).tolist()
        if saved:  # rows past the adopted ones index the buffer
            cut = int(np.searchsorted(rows, saved))
            if cut:
                return np.concatenate(
                    (self._saved[:-1].take(rows[:cut], axis=1), self._data[:-1].take(rows[cut:] - saved, axis=1)),
                    axis=1,
                ).tolist()
            rows = rows - saved
        return self._data[:-1].take(rows, axis=1).tolist()

    def rows(self) -> np.ndarray:
        """Every row logged so far, stamps included."""
        return self._span(0, self._length)

    def end(self, triples: int) -> int:
        """How many rows are stamped below ``triples``."""
        saved = self._saved.shape[1]
        end = int(np.searchsorted(self._saved[-1], triples))
        if end == saved:
            end += int(np.searchsorted(self._data[-1, : self._length - saved], triples))
        return end

    def prefix(self, triples: int, start: int = 0) -> np.ndarray:
        """The value columns of the rows from ``start`` on stamped below ``triples``."""
        return self.between(start, self.end(triples))

    def between(self, start: int, end: int) -> np.ndarray:
        """The value columns of the rows ``start`` to ``end``."""
        return self._span(start, end, slice(0, -1))


#: Names of the four string tables and three row logs of a log, in the
#: order :class:`LogColumns` lists them; the row widths include the stamp.
TABLE_NAMES = ("entities", "predicates", "types", "strings")
ROW_WIDTHS = {"edges": 4, "typed": 3, "others": 6}
#: The string tables of identifiers, which a saved log keeps sorted.
ID_TABLES = ("entities", "predicates", "types")
#: The key columns each row log's reads group it by besides the subject:
#: an edge's object, a type membership's type.
KEY_COLUMNS = {"edges": (2,), "typed": (1,), "others": ()}


@dataclass(frozen=True)
class LogColumns:
    """A whole column log as plain strings and arrays — its durable form.

    ``tables`` maps each of :data:`TABLE_NAMES` to ``(strings, stamps)``,
    the stamps given per code; the identifier tables (:data:`ID_TABLES`)
    list their strings ascending, the order every per-epoch structure
    numbers them in, and ``ranks`` maps each of their codes to its
    position there; the ``strings`` table lists its strings by code.
    ``rows`` maps each of :data:`ROW_WIDTHS` to a 2-D int64 array whose
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
    tables: dict[str, tuple[Sequence[str], Sequence[int]]]
    rows: dict[str, np.ndarray]
    ranks: dict[str, np.ndarray]

    def check(self) -> None:
        """Raise :class:`ValueError` unless the rows are ``triples`` log entries.

        What adopting relies on and a checksum cannot promise: the three
        stamp columns are each increasing and together number the
        positions ``0 .. triples - 1`` once each, every table's stamps
        are sorted, every identifier table is strictly ascending with a
        rank that permutes its codes, and every code points inside its
        table.
        """
        if (
            set(self.tables) != set(TABLE_NAMES)
            or set(self.rows) != set(ROW_WIDTHS)
            or set(self.ranks) != set(ID_TABLES)
        ):
            raise ValueError("column log lacks a table or a row log")
        sizes = {}
        for name, (strings, stamps) in self.tables.items():
            sizes[name] = len(strings)
            stamps = np.asarray(stamps)
            if stamps.shape != (len(strings),) or (np.diff(stamps) < 0).any():
                raise ValueError(f"string table {name!r} is not stamped in log order")
        for name, rank in self.ranks.items():
            strings = self.tables[name][0]
            if (
                rank.dtype != np.int64
                or rank.shape != (len(strings),)
                or not in_range(rank, 0, rank.size)
                or (np.bincount(rank, minlength=rank.size) != 1).any()
            ):
                raise ValueError(f"string table {name!r} has no rank permuting its codes")
            if not strictly_ascending(strings):
                raise ValueError(f"string table {name!r} is not strictly ascending")
        for name, width in ROW_WIDTHS.items():
            rows = self.rows[name]
            if rows.dtype != np.int64 or rows.ndim != 2 or rows.shape[0] != width:
                raise ValueError(f"row log {name!r} is misshapen")
            if rows.shape[1] > 1 and not (np.diff(rows[-1]) > 0).all():
                raise ValueError(f"row log {name!r} is not in log order")
        stamps = np.concatenate([self.rows[name][-1] for name in ROW_WIDTHS])
        if not (
            stamps.size == self.triples
            and in_range(stamps, 0, self.triples)
            and (np.bincount(stamps, minlength=self.triples) == 1).all()
        ):
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
            if not in_range(codes, 0, sizes[table]):
                raise ValueError(f"a row points outside the {table!r} table")


def in_range(values: np.ndarray, low: int, bound: int) -> bool:
    """Whether every value lies in ``[low, bound)``."""
    return not values.size or (int(values.min()) >= low and int(values.max()) < bound)


def _find(strings: Sequence[str], value: str) -> int:
    """The code of ``value`` in a first-seen table (``-1`` when absent)."""
    try:
        return strings.index(value)
    except ValueError:
        return -1


@dataclass(frozen=True)
class EpochColumns:
    """One epoch of the log, in sorted-identifier ordinals.

    Shared by the structures built from it.  The epoch's edge rows are
    the log's first ``num_edges``; :meth:`edge_rows` codes a range of
    them on demand (the topology's full sort codes them all, a derive
    only the rows logged since its previous epoch), so an epoch stores
    no copy of them.  Type memberships are sorted by ``(entity, type)``.
    The ``*_rank`` arrays map a table's first-seen codes to this epoch's
    ordinals: what ``ordinal_of`` reads (through the log's append-only
    code dictionary, which it borrows read only, so no epoch builds a
    dictionary of its own) and what :meth:`ordinal_maps` and
    :meth:`inserted` compare.
    """

    triples: int
    entity_ids: list[str]
    ordinal_of: OrdinalMap
    predicates: list[str]
    type_ids: list[str]
    num_edges: int
    typed_entities: np.ndarray
    typed_types: np.ndarray
    entity_rank: np.ndarray
    predicate_rank: np.ndarray
    type_rank: np.ndarray
    #: The log whose rows the epoch is a prefix of.
    log: "EdgeColumnLog" = field(compare=False, repr=False)

    def table(self, name: str) -> tuple[list[str], np.ndarray]:
        """``(ascending strings, code → ordinal)`` of one of :data:`ID_TABLES`."""
        return {
            "entities": (self.entity_ids, self.entity_rank),
            "predicates": (self.predicates, self.predicate_rank),
            "types": (self.type_ids, self.type_rank),
        }[name]

    def edge_rows(self, start: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(subjects, predicates, objects)`` of the epoch's edge rows from ``start`` on.

        In log order, coded through this epoch's ranks; the rows of an
        earlier epoch are a prefix.
        """
        with self.log._lock:
            subjects, predicates, objects = self.log.edges.between(start, self.num_edges)
        entity_rank = self.entity_rank
        return entity_rank[subjects], self.predicate_rank[predicates], entity_rank[objects]

    def memberships(self, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """``(entities, types)`` of the epoch's type rows from log row ``start`` on, in log order."""
        with self.log._lock:
            entities, types = self.log.typed.between(start, self.typed_entities.size)
        return self.entity_rank[entities], self.type_rank[types]

    def inserted(self, older: "EpochColumns", name: str) -> np.ndarray:
        """This epoch's ordinals, ascending, of the strings of table ``name``
        that ``older``, an earlier epoch of the same log, lacks.

        Old ordinal ``o`` is ordinal ``o + j`` here, ``j`` the number of
        ``inserted - arange`` at or below ``o``: the cuts :func:`shifted`
        takes.
        """
        rank, old = self.table(name)[1], older.table(name)[1]
        return np.sort(rank[old.size :])

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

    :class:`~repro.kg.graph.KnowledgeGraph` creates one per instance,
    writes every triple into it (:meth:`add`) and answers every accessor
    from its string tables (``entities``, ``predicates``, ``types``,
    ``strings``) and row logs (``edges``, ``typed``, ``others``); it hands
    the log out through ``graph.columns``.  A log made from saved columns
    (``adopted``) starts with all of them logged and every key column
    grouped, so its first read sorts nothing.
    """

    def __init__(self, lock: threading.RLock, adopted: LogColumns | None = None) -> None:
        self._lock = lock
        self.entities, self.predicates, self.types, self.strings = (
            _StringTable()
            if adopted is None
            else _StringTable(*adopted.tables[name], adopted.ranks.get(name))
            for name in TABLE_NAMES
        )
        self.edges, self.typed, self.others = (
            _RowLog(width, None if adopted is None else adopted.rows[name], KEY_COLUMNS[name])
            for name, width in ROW_WIDTHS.items()
        )
        self._logged = 0 if adopted is None else adopted.triples
        self._memo: EpochColumns | None = None

    def __len__(self) -> int:
        """How many triples are logged."""
        return self._logged

    def add(self, triple: Triple) -> bool:
        """Log ``triple``; False when it is logged already (lock held).

        What makes an identifier an entity, an edge or a type membership
        is decided here: the subject, an edge's object and a redirect's
        or disambiguation's target are entities (see :class:`LogColumns`
        for the rows).
        """
        position = self._logged
        entity, string = self.entities.code, self.strings.code
        subject = entity(triple.subject, position)
        predicate, obj = triple.predicate, triple.object
        if isinstance(obj, Literal):
            log, row = self.others, (
                subject, string(predicate, position), string(obj.value, position),
                string(obj.datatype, position), string(obj.language, position),
            )
        elif predicate == RDF_TYPE:
            log, row = self.typed, (subject, self.types.code(obj, position))
        elif predicate == DCT_SUBJECT:
            log, row = self.others, (subject, string(predicate, position), string(obj, position), -1, -1)
        elif predicate == REDIRECT or predicate == DISAMBIGUATES:
            log, row = self.others, (subject, string(predicate, position), entity(obj, position), -1, -1)
        else:
            log, row = self.edges, (
                subject, self.predicates.code(predicate, position), entity(obj, position)
            )
        if not log.append(row, position):
            return False
        self._logged += 1
        return True

    # ------------------------------------------------------------------ #
    # The whole log: saving, adopting, decoding
    # ------------------------------------------------------------------ #
    def export(self) -> LogColumns:
        """The log as plain strings and arrays.

        The identifier tables go out sorted (see :class:`LogColumns`):
        as adopted, as the memoised epoch numbers them, or sorted here.
        The arrays are views of the live buffers: encode them before the
        graph's lock is released.
        """
        with self._lock:
            triples, memo = len(self), self._memo
            tables: dict[str, tuple[Sequence[str], Sequence[int]]] = {}
            ranks: dict[str, np.ndarray] = {}
            for name, table in zip(
                TABLE_NAMES, (self.entities, self.predicates, self.types, self.strings)
            ):
                if name not in ID_TABLES:
                    strings = table.tolist()
                elif memo is not None and memo.triples == triples:
                    strings, ranks[name] = memo.table(name)
                else:
                    strings, ranks[name] = table.ranked(triples)
                tables[name] = (strings, table.stamps)
            return LogColumns(
                triples=triples,
                tables=tables,
                rows={
                    name: log.rows()
                    for name, log in zip(ROW_WIDTHS, (self.edges, self.typed, self.others))
                },
                ranks=ranks,
            )

    def adopted_maps(self) -> dict[str, OrdinalMap]:
        """Each identifier table's ``string → ordinal`` as the log was adopted with it."""
        tables = (self.entities, self.predicates, self.types)
        return {
            name: table.adopted
            for name, table in zip(ID_TABLES, tables)
            if table.adopted is not None
        }

    def triples(self) -> list[Triple]:
        """The logged triples, decoded back into objects in log order."""
        with self._lock:
            entity_ids, strings = self.entities.tolist(), self.strings.tolist()
            predicates, type_ids = self.predicates.tolist(), self.types.tolist()
            decoded: list[Triple | None] = [None] * len(self)
            for subject, predicate, obj, stamp in zip(*self.edges.rows().tolist()):
                decoded[stamp] = Triple(entity_ids[subject], predicates[predicate], entity_ids[obj])
            for entity, type_code, stamp in zip(*self.typed.rows().tolist()):
                decoded[stamp] = Triple(entity_ids[entity], RDF_TYPE, type_ids[type_code])
            for subject, predicate, obj, datatype, language, stamp in zip(
                *self.others.rows().tolist()
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

        The latest epoch asked for is memoised, so the structures of one
        epoch share one ordinal table, and a later
        epoch is derived from it (:meth:`_extend`) instead of being cut
        and sorted out of the whole log again; an earlier one is cut and
        sorted (:meth:`_cut`) and leaves the memo alone.
        """
        with self._lock:
            memo = self._memo
            if memo is not None and memo.triples == triples:
                return memo
            if len(self) < triples:
                raise ValueError(f"epoch of {triples} triples requested, the graph has {len(self)}")
            if memo is not None and memo.triples > triples:
                return self._cut(triples)
            columns = self._cut(triples) if memo is None else self._extend(memo, triples)
            self._memo = columns
            return columns

    def _cut(self, triples: int) -> EpochColumns:
        """Cut the epoch's prefix out of the log and sort it (lock held)."""
        entity_ids, entity_rank = self.entities.ranked(triples)
        predicates, predicate_rank = self.predicates.ranked(triples)
        type_ids, type_rank = self.types.ranked(triples)
        typed_entities, typed_types = self.typed.prefix(triples)
        typed_entities, typed_types = sort_rows(
            (len(entity_ids), len(type_ids)), entity_rank[typed_entities], type_rank[typed_types]
        )
        return EpochColumns(
            triples=triples,
            entity_ids=entity_ids,
            ordinal_of=self.entities.ordinal_map(entity_ids, entity_rank),
            predicates=predicates,
            type_ids=type_ids,
            num_edges=self.edges.end(triples),
            typed_entities=typed_entities,
            typed_types=typed_types,
            entity_rank=entity_rank,
            predicate_rank=predicate_rank,
            type_rank=type_rank,
            log=self,
        )

    def _extend(self, memo: EpochColumns, triples: int) -> EpochColumns:
        """The epoch at ``triples`` from an earlier one: what the log added since (lock held).

        The strings stamped since are spliced into the sorted tables and
        the type rows logged since are merged into the earlier epoch's,
        re-coded through the monotone old → new ordinal maps; the edge
        rows stay in the log (:meth:`EpochColumns.edge_rows`).  Equal to
        :meth:`_cut`, array for array.
        """
        entity_ids, entity_rank, entity_remap = self.entities.extended(
            memo.entity_ids, memo.entity_rank, triples
        )
        predicates, predicate_rank, _ = self.predicates.extended(
            memo.predicates, memo.predicate_rank, triples
        )
        type_ids, type_rank, type_remap = self.types.extended(
            memo.type_ids, memo.type_rank, triples
        )

        def recoded(remap: np.ndarray | None, column: np.ndarray) -> np.ndarray:
            return column if remap is None else remap[column]

        typed_entities, typed_types = self.typed.prefix(triples, memo.typed_entities.size)
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
                else self.entities.ordinal_map(entity_ids, entity_rank)
            ),
            predicates=predicates,
            type_ids=type_ids,
            num_edges=self.edges.end(triples),
            typed_entities=typed_entities,
            typed_types=typed_types,
            entity_rank=entity_rank,
            predicate_rank=predicate_rank,
            type_rank=type_rank,
            log=self,
        )


__all__ = [
    "EdgeColumnLog",
    "EpochColumns",
    "ID_TABLES",
    "LogColumns",
    "ROW_WIDTHS",
    "StringColumn",
    "TABLE_NAMES",
    "csr_gather",
    "csr_merge",
    "csr_offsets",
    "in_range",
    "isin_sorted",
    "merge_rows",
    "rank_strings",
    "runs",
    "shifted",
    "sort_rows",
    "sorted_unique",
    "spliced",
    "unique_inverse",
]
