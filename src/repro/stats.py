"""Unified typed introspection surface for the engines.

Historically every component grew its own ``*_info()`` dict accessor —
``cache_info()`` on the caches, ``pruning_info()`` on the scorers and
rankers, ``rebuild_info()`` on the feature index — each returning a plain
dict with its own key conventions.  This module unifies them behind one
typed, frozen object graph:

* :class:`CacheStats` — one LRU cache's counters (hits, misses,
  occupancy, optionally the epoch the cache is keyed by);
* :class:`PruningStatsView` — an immutable snapshot of one pruned
  traversal's :class:`~repro.topk.stats.PruningStats` counters;
* :class:`EngineStats` — one component's full introspection record:
  configuration echo (pruning mode),
  epoch, caches, pruning counters, rebuild counters and child
  components.

``stats()`` on :class:`~repro.search.engine.SearchEngine`,
:class:`~repro.explore.recommender.RecommendationEngine` and
:class:`~repro.engine.pivote.PivotE` returns one :class:`EngineStats`;
the legacy dict accessors remain as thin shims over it and report the
identical numbers.  :meth:`EngineStats.as_dict` renders the whole tree
as JSON-able plain dicts (the shape the ``"stats"`` API action returns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class CacheStats:
    """Counters of one LRU cache (`hits`/`misses`/occupancy).

    ``epoch`` is carried by epoch-keyed caches (the recommendation
    cache) and ``None`` for instance-keyed ones (the search result
    cache, which keys on the index ``(uid, epoch)`` pair instead).
    """

    name: str
    hits: int
    misses: int
    size: int
    maxsize: int
    epoch: int | None = None

    @classmethod
    def from_info(
        cls, name: str, info: Mapping[str, int], epoch: int | None = None
    ) -> "CacheStats":
        """Wrap a legacy ``cache_info()`` dict."""
        return cls(
            name=name,
            hits=info["hits"],
            misses=info["misses"],
            size=info["size"],
            maxsize=info["maxsize"],
            epoch=info.get("epoch", epoch),
        )

    def as_info(self) -> dict[str, int]:
        """The legacy ``cache_info()`` dict (epoch key only when tracked)."""
        info = {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "maxsize": self.maxsize,
        }
        if self.epoch is not None:
            info["epoch"] = self.epoch
        return info


@dataclass(frozen=True)
class PruningStatsView:
    """Immutable snapshot of one traversal's pruning counters.

    Field semantics are documented on :class:`~repro.topk.stats.PruningStats`;
    this view adds a ``name`` identifying which scorer/ranker the counters
    belong to inside an :class:`EngineStats` record.
    """

    name: str
    queries: int
    terms_total: int
    terms_skipped: int
    candidates_total: int
    candidates_pruned: int
    groups_total: int
    groups_skipped: int
    rescored: int
    kernel_queries: int = 0

    @classmethod
    def from_counters(cls, name: str, counters: Mapping[str, int]) -> "PruningStatsView":
        """Wrap a legacy ``pruning_info()`` dict."""
        return cls(name=name, **counters)

    def as_counters(self) -> dict[str, int]:
        """The legacy ``pruning_info()`` dict."""
        return {
            "queries": self.queries,
            "terms_total": self.terms_total,
            "terms_skipped": self.terms_skipped,
            "candidates_total": self.candidates_total,
            "candidates_pruned": self.candidates_pruned,
            "groups_total": self.groups_total,
            "groups_skipped": self.groups_skipped,
            "rescored": self.rescored,
            "kernel_queries": self.kernel_queries,
        }


@dataclass(frozen=True)
class ExecutorStats:
    """Where an engine's work runs: always inline, on the calling thread.

    Every :class:`EngineStats` carries the one constant
    :data:`INLINE_EXECUTOR`.  The record stays until a ``[benchmark]``
    change drops the ``exec.*`` counters from the e2e harness:
    ``benchmarks/e2e/run.py`` reads ``tasks_dispatched`` and
    ``tasks_inlined`` off the search and recommendation records on
    every pass.
    """

    mode: str
    tasks_dispatched: int
    tasks_inlined: int

    def as_dict(self) -> dict[str, object]:
        return {
            "mode": self.mode,
            "tasks_dispatched": self.tasks_dispatched,
            "tasks_inlined": self.tasks_inlined,
        }


#: The ``executor`` record of every component: nothing is dispatched.
INLINE_EXECUTOR = ExecutorStats(mode="inline", tasks_dispatched=0, tasks_inlined=0)


@dataclass(frozen=True)
class StorageStats:
    """One system's durable-snapshot record.

    ``publishes``/``published_bytes`` count snapshot segments
    :meth:`~repro.engine.pivote.PivotE.save` wrote,
    ``attaches``/``attached_bytes`` segments mapped (and CRC-verified)
    back in, ``failures`` publish or attach attempts that raised
    ``SnapshotUnavailable`` and degraded to a rebuild.  ``cold_start_ms``
    is how long the last ``PivotE.load`` spent restoring the system
    (0.0 for systems built in RAM).

    The last four fields are the lazy boundary of a loaded system:
    ``graph_hydrated`` is whether the graph's triple access paths exist
    (a loaded graph builds them when first asked for one; a built graph
    always has them), ``hydration_ms`` how long building them took,
    ``feature_rows_decoded`` how many holder/feature rows the restored
    feature snapshot has turned into sets on demand, and
    ``posting_lists_decoded`` how many of the stored per-term posting
    lists the adopted search index has turned into objects.
    """

    publishes: int
    published_bytes: int
    attaches: int
    attached_bytes: int
    failures: int
    cold_start_ms: float
    graph_hydrated: bool = True
    hydration_ms: float = 0.0
    feature_rows_decoded: int = 0
    posting_lists_decoded: int = 0

    def as_dict(self) -> dict[str, object]:
        return {
            "publishes": self.publishes,
            "published_bytes": self.published_bytes,
            "attaches": self.attaches,
            "attached_bytes": self.attached_bytes,
            "failures": self.failures,
            "cold_start_ms": self.cold_start_ms,
            "graph_hydrated": self.graph_hydrated,
            "hydration_ms": self.hydration_ms,
            "feature_rows_decoded": self.feature_rows_decoded,
            "posting_lists_decoded": self.posting_lists_decoded,
        }


@dataclass(frozen=True)
class TraversalStats:
    """One graph's columnar-topology traversal record.

    ``bfs_queries``/``connect_queries`` count vectorized
    ``bfs_reachable``/``connecting_entities`` calls;
    ``frontier_entities`` sums the BFS frontier sizes those queries
    advanced and ``edges_touched`` the CSR adjacency rows they gathered.
    ``interval_filters``/``interval_hits`` count the expander's
    interval-encoded type restrictions and the candidates that survived
    them, and ``cache_hits``/``rebuilds`` track the per-epoch
    :class:`~repro.kg.topology.GraphTopology` memo.  The counters live
    on the graph itself, so every component traversing the same graph
    reports identical numbers.
    """

    bfs_queries: int
    connect_queries: int
    frontier_entities: int
    edges_touched: int
    interval_filters: int
    interval_hits: int
    cache_hits: int
    rebuilds: int

    def as_dict(self) -> dict[str, int]:
        return {
            "bfs_queries": self.bfs_queries,
            "connect_queries": self.connect_queries,
            "frontier_entities": self.frontier_entities,
            "edges_touched": self.edges_touched,
            "interval_filters": self.interval_filters,
            "interval_hits": self.interval_hits,
            "cache_hits": self.cache_hits,
            "rebuilds": self.rebuilds,
        }


@dataclass(frozen=True)
class StageStats:
    """Which form each stage of the recommendation request path ran in.

    ``arrays[stage]`` counts the stage calls served from the pinned
    snapshot's array tables, ``fallbacks[stage][reason]`` those that ran
    the exhaustive reference instead (stages and reasons are listed on
    :class:`~repro.ranking.ranking_support.StageCounters`).
    """

    arrays: Mapping[str, int]
    fallbacks: Mapping[str, Mapping[str, int]]

    @property
    def fallback_total(self) -> int:
        """Stage calls that did not run on the arrays, all stages and reasons."""
        return sum(sum(reasons.values()) for reasons in self.fallbacks.values())

    def as_dict(self) -> dict[str, object]:
        return {
            "arrays": dict(self.arrays),
            "fallbacks": {stage: dict(reasons) for stage, reasons in self.fallbacks.items()},
        }


@dataclass(frozen=True)
class EngineStats:
    """One component's full introspection record.

    ``component`` names the component (``"search"``,
    ``"recommendation"``, ``"pivote"``); ``epoch`` is the component's
    current index/graph epoch; ``pruning`` echoes the top-k strategy
    the component runs with.  ``caches``
    and ``pruning_counters`` carry the component's own counters, and a
    facade lists its components as ``children``.  The recommendation
    engine also reports ``stages``: per request stage, the calls served
    from the array tables and the named fallbacks to the exhaustive
    reference.
    """

    component: str
    epoch: int
    pruning: str
    caches: tuple[CacheStats, ...] = ()
    pruning_counters: tuple[PruningStatsView, ...] = ()
    rebuilds: Mapping[str, int] | None = None
    children: tuple["EngineStats", ...] = ()
    executor: ExecutorStats = INLINE_EXECUTOR
    storage: StorageStats | None = None
    traversal: TraversalStats | None = None
    stages: StageStats | None = None

    def cache(self, name: str) -> CacheStats:
        """The named cache's counters (raises ``KeyError`` when absent)."""
        for entry in self.caches:
            if entry.name == name:
                return entry
        raise KeyError(f"unknown cache: {name!r}")

    def pruning_view(self, name: str) -> PruningStatsView:
        """The named traversal's counters (raises ``KeyError`` when absent)."""
        for entry in self.pruning_counters:
            if entry.name == name:
                return entry
        raise KeyError(f"unknown pruning counters: {name!r}")

    def child(self, component: str) -> "EngineStats":
        """The named child component (raises ``KeyError`` when absent)."""
        for entry in self.children:
            if entry.component == component:
                return entry
        raise KeyError(f"unknown component: {component!r}")

    def as_dict(self) -> dict[str, object]:
        """The whole record as JSON-able plain dicts.

        ``rebuilds`` only when the component tracks rebuild
        counters; ``children`` only when the component has any.
        """
        payload: dict[str, object] = {
            "component": self.component,
            "epoch": self.epoch,
            "pruning": self.pruning,
            "caches": {entry.name: entry.as_info() for entry in self.caches},
            "pruning_counters": {
                entry.name: entry.as_counters() for entry in self.pruning_counters
            },
            "executor": self.executor.as_dict(),
        }
        if self.storage is not None:
            payload["storage"] = self.storage.as_dict()
        if self.traversal is not None:
            payload["traversal"] = self.traversal.as_dict()
        if self.stages is not None:
            payload["stages"] = self.stages.as_dict()
        if self.rebuilds is not None:
            payload["rebuilds"] = dict(self.rebuilds)
        if self.children:
            payload["children"] = {
                entry.component: entry.as_dict() for entry in self.children
            }
        return payload
