"""Pruning counters reported by every threshold-pruned traversal.

The counters mirror the ``cache_info()`` convention of the result caches:
a mutable object owned by the scorer / ranker instance, accumulated across
queries and exposed as a plain dict so benchmarks and operators can verify
that pruning actually bites (``terms_skipped``, ``candidates_pruned`` and
``groups_skipped`` must be non-zero on workloads where θ closes the gap to
the bounds).
"""

from __future__ import annotations


class PruningStats:
    """Cumulative skip counters of one pruned scorer or ranker.

    ``queries``            traversals run with pruning enabled;
    ``terms_total``        query terms seen by the pruned traversals;
    ``terms_skipped``      term passes skipped outright (dense kernel) or
                           served by accumulator-only refinement instead of
                           a full postings walk (sparse kernel);
    ``candidates_total``   candidates entering the traversals;
    ``candidates_pruned``  candidates evicted by a bound check before the
                           traversal finished scoring them;
    ``groups_total``       dominant-type groups seen (recommendation side);
    ``groups_skipped``     whole type groups skipped because
                           ``B(c) + bound(corrections) < θ``;
    ``rescored``           survivors re-scored exactly for the final
                           ranking (the price of byte-identical output);
    ``kernel_queries``     traversals served by a vectorized kernel
                           (every pruned traversal).
    """

    __slots__ = (
        "queries",
        "terms_total",
        "terms_skipped",
        "candidates_total",
        "candidates_pruned",
        "groups_total",
        "groups_skipped",
        "rescored",
        "kernel_queries",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (new counters must be listed in ``__slots__``)."""
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (``cache_info()`` convention)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"PruningStats({inner})"
