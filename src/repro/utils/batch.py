"""Order-preserving dedupe behind the engines' batch APIs.

``search_many`` / ``recommend_many`` amortise work across a query batch
two ways: the per-epoch memoisation (statistics, bounds, supports) warms
on the first query and serves the rest, and *identical* queries inside
one batch are computed once.  This helper implements the second part
generically: canonicalise each request to a key, compute every distinct
key once (in first-appearance order, so memo warm-up sees the same
sequence a serial caller would), and fan the shared results back
out to the original positions.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from typing import TypeVar

R = TypeVar("R")
Q = TypeVar("Q")


def dedupe_batch(
    requests: Sequence[Q],
    key_of: Callable[[Q], Hashable],
    compute: Callable[[Q], R],
) -> list[R]:
    """Compute one result per distinct key, shared across duplicates.

    Results are the *same object* for duplicate requests — callers caching
    them must hand out immutable payloads, the same contract the LRU
    result caches already impose.
    """
    results: dict[Hashable, R] = {}
    order: list[Hashable] = []
    for request in requests:
        key = key_of(request)
        if key not in results:
            results[key] = compute(request)
        order.append(key)
    return [results[key] for key in order]
