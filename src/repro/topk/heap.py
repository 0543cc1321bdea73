"""The live pruning threshold θ over score lower bounds.

θ is the k-th best *lower bound* on a final score observed so far.  Any
candidate whose score *upper bound* falls below θ (minus a rounding-safety
slack, :func:`safety_slack`) provably cannot enter the top-k, because at
least k other candidates already have final scores of at least θ.

:func:`threshold_of` recomputes θ from a snapshot of lower bounds (the
sharded search's subset-pool priming and the θ slab use it; the kernels
have an array form), and :class:`SharedThreshold` is the cross-shard θ
broadcast.
"""

from __future__ import annotations

import heapq
import math
import threading
from collections.abc import Iterable

#: θ before k lower bounds have been seen: nothing can be pruned yet.
NO_THRESHOLD = float("-inf")


def safety_slack(threshold: float) -> float:
    """Rounding guard subtracted from θ before any bound comparison.

    The pruned traversals associate the same floating-point terms
    differently from the exhaustive reference path, so two mathematically
    equal scores can differ by a few ulps between the paths.  Pruning
    decisions therefore only discard work at least ``slack`` below θ —
    about 1e-9 relative, many orders of magnitude above accumulated
    rounding error and far below any score gap worth pruning.
    """
    return 1e-9 * (1.0 + abs(threshold))


class SharedThreshold:
    """The cross-shard θ broadcast of the sharded execution layer.

    The layer runs one traversal per document shard, and a naive
    broadcast of each shard's *own* k-th best lower bound composes badly:
    when true matches are sparse, every shard's k-th best is dominated by
    background-floor candidates and θ never tightens (the serial
    traversal, seeing all candidates at once, prunes almost everything).
    The broadcast is therefore *compositional*: each shard worker keeps a
    slot holding its current top-k score **lower bounds** (distinct
    candidates within the shard; candidates never span shards, so the
    union across slots is a set of distinct candidates too), and the
    global θ is the k-th largest of the union — exactly the θ the serial
    traversal would derive from the merged pool.

    θ is monotone over the query: a published bound stays a true lower
    bound of its candidate's final score even after that candidate is
    evicted elsewhere, so :attr:`value` keeps the running maximum and
    only ever rises.  ``publish`` additionally accepts scalar θ values
    that carry their own k-candidate witness (a primed θ from an exactly
    scored subset pool, the ranking side's type-group initial θ).
    """

    __slots__ = ("_lock", "_k", "_value", "_slots")

    def __init__(self, k: int = 0, initial: float = NO_THRESHOLD) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        self._lock = threading.Lock()
        self._k = k
        self._value = initial if initial == initial else NO_THRESHOLD  # NaN-proof
        self._slots: list[list[float]] = []

    @property
    def value(self) -> float:
        """The tightest θ published so far (``-inf`` until one exists)."""
        return self._value

    def publish(self, value: float) -> None:
        """Offer a self-witnessed scalar θ; kept only when tighter."""
        if value > self._value:  # NaN compares false: never published
            with self._lock:
                if value > self._value:
                    self._value = value

    def combine(self, local: float) -> float:
        """Sync a scalar θ with the broadcast: publish if tighter, adopt
        if looser; returns the tighter of the two."""
        published = self._value
        if local > published:
            self.publish(local)
            return local
        return published

    def slot(self) -> "SharedThresholdSlot":
        """Allocate one worker's contribution slot (call once per shard)."""
        with self._lock:
            self._slots.append([])
            return SharedThresholdSlot(self, len(self._slots) - 1)

    def _offer(self, slot_id: int, bounds: list[float]) -> float:
        """Replace one slot's lower bounds; return the refreshed global θ.

        Replacement (rather than accumulation) keeps every candidate
        represented at most once per slot even though workers re-offer
        after every pass with grown partials; the k-th largest over all
        slots is then witnessed by k distinct candidates, hence sound.
        """
        with self._lock:
            self._slots[slot_id] = bounds
            if self._k > 0:
                pool = [bound for slot in self._slots for bound in slot]
                if len(pool) >= self._k:
                    theta = heapq.nlargest(self._k, pool)[-1]
                    if theta > self._value:
                        self._value = theta
            return self._value


class SharedThresholdSlot:
    """One shard worker's handle on a :class:`SharedThreshold`."""

    __slots__ = ("_shared", "_id")

    def __init__(self, shared: SharedThreshold, slot_id: int) -> None:
        self._shared = shared
        self._id = slot_id

    @property
    def value(self) -> float:
        """The current global θ (running maximum; reads are lock-free)."""
        return self._shared.value

    def offer(self, bounds: list[float]) -> float:
        """Publish this shard's current top-k score lower bounds.

        ``bounds`` must be final-score lower bounds of *distinct*
        candidates of this shard (each call replaces the previous offer).
        Returns the refreshed global θ.
        """
        return self._shared._offer(self._id, bounds)


def threshold_of(scores: Iterable[float], k: int) -> float:
    """θ over a snapshot of lower bounds: the k-th largest, or ``-inf``.

    ``heapq.nlargest`` runs in C and is O(n log k).

    The result is never NaN: a NaN θ would poison every subsequent bound
    comparison (all comparisons with NaN are false, so pruning would
    silently discard *every* candidate).  NaN handling costs nothing on
    the hot path — ``nlargest`` runs on the raw iterable (which may be a
    one-shot generator) and only the O(k) result is scanned: a NaN in the
    input either never enters the bounded heap (every ``NaN > heap[0]``
    comparison is false, so the k-th largest *comparable* score comes out
    as usual) or ends up in the result, in which case θ degrades to
    ``-inf`` — pruning is disabled for the snapshot, which is sound.
    ``-inf`` is also returned when fewer than ``k`` scores exist.
    """
    if k <= 0:
        return NO_THRESHOLD
    largest = heapq.nlargest(k, scores)
    if len(largest) < k:
        return NO_THRESHOLD
    if any(map(math.isnan, largest)):
        return NO_THRESHOLD
    return largest[-1]
