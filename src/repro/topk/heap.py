"""The live pruning threshold θ over score lower bounds.

θ is the k-th best *lower bound* on a final score observed so far.  Any
candidate whose score *upper bound* falls below θ (minus a rounding-safety
slack, :func:`safety_slack`) provably cannot enter the top-k, because at
least k other candidates already have final scores of at least θ.

:func:`threshold_of` recomputes θ from a snapshot of lower bounds; the
kernels use its array form.
"""

from __future__ import annotations

import heapq
import math
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
