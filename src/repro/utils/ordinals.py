"""Identifier → ordinal maps that a successor epoch derives instead of rebuilding.

Every per-epoch structure numbers its identifiers in sorted order, so that
ordinal order is identifier order (the ranking tie-break).  One write that
adds an identifier shifts the ordinal of every identifier after it, so a
plain ``identifier → ordinal`` dictionary would have to be rebuilt for
each epoch.  :class:`OrdinalMap` splits it in two instead:

* ``codes`` — an append-only ``identifier → code`` dictionary shared by
  every epoch of one family; a code, once given, never changes;
* ``rank`` — this epoch's ``code → ordinal`` array, which the successor
  derives with one vectorized shift.  A code past its end, or ranked
  ``-1``, belongs to an identifier this epoch lacks (one written later,
  or by a sibling successor), so sharing ``codes`` never changes what
  an older epoch answers.

A map either owns its registry (and the lock that serialises appends to
it) or borrows one that another structure extends — the column log's
string table, which a loaded system's index, feature tables and
topology number their entities with too — and never writes it: the
first :meth:`~OrdinalMap.with_inserted` from a borrowed registry copies
it, and the successors share the copy.
"""

from __future__ import annotations

import operator
import threading
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import islice

import numpy as np


class OrdinalMap(Mapping):
    """``identifier → ordinal`` over ``ids`` (ascending), read only.

    Without ``codes`` the map numbers ``ids`` itself (code == ordinal)
    and owns that registry; ``codes`` without ``lock`` is borrowed.
    Without ``rank`` every code below ``len(ids)`` is its own ordinal.
    """

    __slots__ = ("ids", "_codes", "_ranks", "_lock")

    def __init__(
        self,
        ids: list[str],
        codes: dict[str, int] | None = None,
        rank: np.ndarray | None = None,
        lock: threading.Lock | None = None,
    ) -> None:
        self.ids = ids
        if codes is None:
            codes, lock = dict(zip(ids, range(len(ids)))), threading.Lock()
        self._codes = codes
        #: Serialises :meth:`with_inserted` calls that append to ``codes``;
        #: ``None`` while the registry is borrowed.
        self._lock = lock
        #: ``rank`` plus one ``-1`` slot that every unknown code is clamped to.
        self._ranks = np.append(
            np.arange(len(ids), dtype=np.int64) if rank is None else rank, -1
        )

    def get(self, key, default=None):
        code = self._codes.get(key)
        if code is None or code >= self._ranks.size - 1:
            return default
        ordinal = self._ranks.item(code)
        return ordinal if ordinal >= 0 else default

    def __getitem__(self, key) -> int:
        ordinal = self.get(key)
        if ordinal is None:
            raise KeyError(key)
        return ordinal

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def rank(self) -> np.ndarray:
        """``code → ordinal`` of every code this map knows (a view; do not write)."""
        return self._ranks[:-1]

    def array(self, keys: Iterable[str], count: int = -1) -> np.ndarray:
        """The ordinals of ``keys`` in the order given (``-1`` for an unknown key)."""
        get, unknown = self._codes.get, self._ranks.size - 1
        codes = np.fromiter((get(key, unknown) for key in keys), dtype=np.int64, count=count)
        return self._ranks[np.minimum(codes, unknown, out=codes)]

    def with_inserted(self, key: str) -> tuple["OrdinalMap", int]:
        """``(map over ids + [key], ordinal of key)``; ``self`` when ``key`` is held.

        The successor shares the code registry (``key`` is appended to it
        when new; a borrowed registry is copied first) and shifts this
        map's ranks past the insertion point; this map answers as before.
        """
        ids = self.ids
        position = bisect_left(ids, key)
        if position < len(ids) and ids[position] == key:
            return self, position
        codes, lock = self._codes, self._lock
        if lock is None:  # borrowed: its owner extends it, so extend a copy
            codes, lock = dict(codes), threading.Lock()
        with lock:  # siblings derived concurrently must not share a code
            code = codes.get(key)
            if code is None:
                code = codes[key] = len(codes)
            size = len(codes)
        rank = np.full(size, -1, dtype=np.int64)
        previous = self._ranks[:-1]
        rank[: previous.size] = previous + (previous >= position)
        rank[code] = position
        inserted = ids.copy()
        inserted.insert(position, key)
        return OrdinalMap(inserted, codes, rank, lock), position


def strictly_ascending(ids: Sequence[str]) -> bool:
    """Whether every identifier sorts after the one before it (one C-level pass)."""
    return all(map(operator.lt, ids, islice(ids, 1, None)))


__all__ = ["OrdinalMap", "strictly_ascending"]
