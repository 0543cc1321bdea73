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

The log is caught up lazily from the triples it has not consumed yet,
under the graph's mutation lock, so writes stay as cheap as they were.
Because stamps only grow, the state of *any* epoch is a prefix — the
entries whose stamp is below that epoch's triple count — which is what
lets a pinned feature snapshot build the tables of its own epoch after
the graph has moved on.  :meth:`EdgeColumnLog.epoch` cuts that prefix
and re-codes it into the sorted-identifier ordinals both structures use
(ordinal order == string order, the ranking tie-break).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .namespaces import DCT_SUBJECT, DISAMBIGUATES, RDF_TYPE, REDIRECT
from .triple import Triple


def sort_rows(sizes: Sequence[int], *columns: np.ndarray) -> list[np.ndarray]:
    """Parallel ordinal columns with their rows in lexicographic order.

    ``sizes[i]`` bounds ``columns[i]`` (values in ``[0, sizes[i])``).  The
    rows are packed into one mixed-radix int64 each, first column most
    significant, sorted as plain integers and unpacked again — an order
    of magnitude faster than ``np.lexsort`` on the same columns.
    """
    radices = [max(size, 1) for size in sizes]
    if math.prod(radices) > np.iinfo(np.int64).max:
        raise OverflowError(f"rows of radices {radices} do not pack into int64")
    keys = columns[0]
    for radix, column in zip(radices[1:], columns[1:]):
        keys = keys * radix + column
    keys = np.sort(keys)
    unpacked = []
    for radix in reversed(radices[1:]):
        keys, column = np.divmod(keys, radix)
        unpacked.append(column)
    unpacked.append(keys)
    return unpacked[::-1]


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
    flat = np.repeat(starts, lengths) + (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(lengths) - lengths, lengths)
    )
    return values[flat]


class _StringTable:
    """Strings coded in first-seen order, each stamped with its log position."""

    __slots__ = ("strings", "stamps", "_codes")

    def __init__(self) -> None:
        self.strings: list[str] = []
        self.stamps: list[int] = []
        self._codes: dict[str, int] = {}

    def code(self, value: str, position: int) -> int:
        code = self._codes.get(value)
        if code is None:
            code = self._codes[value] = len(self.strings)
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


class _RowLog:
    """Growable int64 rows stored column-wise; the last column is the stamp.

    Appends only write past the current length (growing reallocates and
    leaves the old buffer to its holders), so prefix views stay valid.
    """

    __slots__ = ("_data", "_length")

    def __init__(self, width: int) -> None:
        self._data = np.empty((width, 1024), dtype=np.int64)
        self._length = 0

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

    def prefix(self, triples: int) -> np.ndarray:
        """The value columns of the rows stamped below ``triples``."""
        stamps = self._data[-1, : self._length]
        return self._data[:-1, : int(np.searchsorted(stamps, triples))]


@dataclass(frozen=True)
class EpochColumns:
    """One epoch of the log, re-coded into sorted-identifier ordinals.

    Shared by the two structures built from it, so an epoch pays for one
    identifier sort and one ``ordinal_of`` dictionary.  Edge rows are in
    log order (each consumer sorts them the way its layout needs); type
    memberships are sorted by ``(entity, type)``.
    """

    triples: int
    entity_ids: list[str]
    ordinal_of: dict[str, int]
    predicates: list[str]
    type_ids: list[str]
    edge_subjects: np.ndarray
    edge_predicates: np.ndarray
    edge_objects: np.ndarray
    typed_entities: np.ndarray
    typed_types: np.ndarray


class EdgeColumnLog:
    """The column log of one graph (see the module docstring).

    Holds the graph's triple list and mutation lock by reference;
    :class:`~repro.kg.graph.KnowledgeGraph` creates one per instance and
    hands it out through ``graph.columns``.
    """

    def __init__(self, triples: list[Triple], lock: threading.RLock) -> None:
        self._triples = triples
        self._lock = lock
        self._consumed = 0
        self._entities = _StringTable()
        self._predicates = _StringTable()
        self._types = _StringTable()
        self._edges = _RowLog(4)
        self._typed = _RowLog(3)
        self._memo: EpochColumns | None = None

    def _catch_up(self) -> None:
        """Consume the triples appended since the last call (lock held).

        Mirrors ``KnowledgeGraph._add_triple_locked`` case for case: what
        makes an identifier an entity, an edge or a type membership is
        decided there, and only repeated here in code form.
        """
        entity, predicate_code, type_code = (
            self._entities.code, self._predicates.code, self._types.code,
        )
        edges: list[tuple[int, ...]] = []
        typed: list[tuple[int, ...]] = []
        start = self._consumed
        for position, triple in enumerate(self._triples[start:], start):
            subject = entity(triple.subject, position)
            if triple.is_literal:
                continue
            predicate, obj = triple.predicate, triple.object
            if predicate == RDF_TYPE:
                typed.append((subject, type_code(obj, position), position))
            elif predicate == DCT_SUBJECT:
                continue
            elif predicate == REDIRECT or predicate == DISAMBIGUATES:
                entity(obj, position)
            else:
                edges.append(
                    (subject, predicate_code(predicate, position), entity(obj, position), position)
                )
        self._edges.extend(edges)
        self._typed.extend(typed)
        self._consumed = len(self._triples)

    def epoch(self, triples: int) -> EpochColumns:
        """The columns of the graph state after its first ``triples`` triples.

        The latest epoch asked for is memoised, so the feature tables and
        the topology of one epoch share one ordinal table.
        """
        with self._lock:
            if triples > len(self._triples):
                raise ValueError(
                    f"epoch of {triples} triples requested, the graph has {len(self._triples)}"
                )
            memo = self._memo
            if memo is not None and memo.triples == triples:
                return memo
            if self._consumed < triples:
                self._catch_up()
            entity_ids, entity_rank = self._entities.ranked(triples)
            predicates, predicate_rank = self._predicates.ranked(triples)
            type_ids, type_rank = self._types.ranked(triples)
            subjects, edge_predicates, objects = self._edges.prefix(triples)
            typed_entities, typed_types = self._typed.prefix(triples)
            typed_entities, typed_types = sort_rows(
                (len(entity_ids), len(type_ids)), entity_rank[typed_entities], type_rank[typed_types]
            )
            memo = self._memo = EpochColumns(
                triples=triples,
                entity_ids=entity_ids,
                ordinal_of=dict(zip(entity_ids, range(len(entity_ids)))),
                predicates=predicates,
                type_ids=type_ids,
                edge_subjects=entity_rank[subjects],
                edge_predicates=predicate_rank[edge_predicates],
                edge_objects=entity_rank[objects],
                typed_entities=typed_entities,
                typed_types=typed_types,
            )
            return memo


__all__ = ["EdgeColumnLog", "EpochColumns", "csr_gather", "csr_offsets", "sort_rows"]
