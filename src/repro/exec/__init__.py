"""Sharded, batch-parallel execution layer of the search engine.

The classic shared-nothing partitioned execution pattern: partition the
document id space into shards, fan the pruned traversal kernels out over
a worker pool, broadcast the live θ between shards so late workers start
with the tightest bound found anywhere, then merge the per-shard
survivors and re-score in exhaustive operation order.  Because the final
re-scoring pass is exactly the serial one, sharded (and batched)
rankings stay byte-identical to the 1-shard path for any shard count.

Building blocks:

* :func:`~repro.exec.sharding.shard_of` — deterministic (CRC-based)
  id→shard routing;
* :class:`~repro.exec.executor.ShardExecutor` — a process-wide thread
  pool running one traversal per shard (shard 0 runs inline on the
  calling thread, so a 1-shard query never pays a dispatch);
* :class:`~repro.topk.SharedThreshold` — the cross-shard θ broadcast
  (lives in :mod:`repro.topk` with the rest of the θ machinery);
* :func:`~repro.exec.executor.merge_shard_stats` — folds per-shard
  :class:`~repro.topk.PruningStats` into a scorer's cumulative counters
  without double-counting the logical query;
* :func:`~repro.exec.batch.dedupe_batch` — the order-preserving
  dedupe behind the engines' ``search_many`` / ``recommend_many`` batch
  APIs.
"""

from .batch import dedupe_batch
from .executor import (
    EXECUTOR_CHOICES,
    ShardExecutor,
    default_executor,
    merge_shard_stats,
    resolve_executor,
    shutdown_executors,
)
from .sharding import shard_of
from .shm import (
    AttachedSnapshot,
    PublishedSnapshot,
    SnapshotSource,
    SnapshotUnavailable,
    ThetaSlab,
    publish_graph_topology,
    publish_snapshot,
    release_snapshots,
    snapshot_registry,
)

# Imported last: its transitive imports (topk kernels, columnar index)
# re-enter this partially-initialised package for the names above.
from .procpool import (  # noqa: E402  isort: skip
    ProcessShardExecutor,
    ProcessTask,
    shard_stats_from,
    shutdown_process_executors,
)


def executor_stats(mode: str, workers: int):
    """One engine's :class:`~repro.stats.ExecutorStats` record.

    Resolves the engine's configured executor (creating it lazily is
    cheap — pools spawn on first dispatch, not construction) and pairs
    its dispatch counters with the process-wide snapshot registry's
    publish counters.
    """
    from ..stats import ExecutorStats

    executor = resolve_executor(mode, workers)
    registry = snapshot_registry()
    return ExecutorStats(
        mode=mode,
        effective=executor.effective_mode(),
        workers=executor.max_workers,
        tasks_dispatched=executor.tasks_dispatched,
        tasks_inlined=executor.tasks_inlined,
        snapshots_published=registry.publishes,
        snapshot_bytes=registry.published_bytes,
        snapshot_attaches=getattr(executor, "snapshot_attaches", 0),
        snapshots_active=registry.active(),
    )


__all__ = [
    "EXECUTOR_CHOICES",
    "AttachedSnapshot",
    "ProcessShardExecutor",
    "ProcessTask",
    "PublishedSnapshot",
    "ShardExecutor",
    "SnapshotSource",
    "SnapshotUnavailable",
    "ThetaSlab",
    "dedupe_batch",
    "default_executor",
    "executor_stats",
    "merge_shard_stats",
    "publish_graph_topology",
    "publish_snapshot",
    "release_snapshots",
    "resolve_executor",
    "shard_of",
    "shard_stats_from",
    "shutdown_executors",
    "shutdown_process_executors",
    "snapshot_registry",
]
