"""The shard worker pool and the per-shard counter merge.

One process-wide :class:`ShardExecutor` serves every engine: shard 0 of a
query always runs inline on the calling thread (a 1-shard query therefore
never touches the pool), the remaining shards are dispatched to a small
``ThreadPoolExecutor``.  Worker threads are daemonic and lazily created;
the pool is sized to the machine, not the shard count — a 16-shard query
on a 4-core box queues its tail shards, which is exactly the shared-
nothing behaviour a partitioned engine wants under load.

The executor is *platform-aware* (``mode="auto"``, the default): the
traversals the workers run are pure Python, so on a GIL-bound interpreter
— or a single-core box — pool threads cannot overlap any work and only
add dispatch and convoy overhead.  There the tasks run inline on the
calling thread in shard order, which propagates the cross-shard θ
broadcast *perfectly* (every later shard starts with all earlier shards'
offers).  On a free-threaded multi-core build the pool genuinely
parallelises the shards.  Either way the fan-out/merge structure, the θ
broadcast and the byte-identical merge contract (see :mod:`repro.exec`)
are the same — ``mode`` only decides where the workers run.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

from ..topk import PruningStats

T = TypeVar("T")

#: Upper bound on pool threads: beyond this the workers only add
#: scheduling overhead, and shard counts are expected to be small.
_MAX_WORKERS = 8

#: Recognised executor modes: ``"auto"`` pools only when threads can
#: overlap work, ``"threads"`` always pools, ``"inline"`` never does.
EXECUTOR_MODES = ("auto", "threads", "inline")

#: Config-level executor choices (``SearchConfig.executor`` / CLI
#: ``--executor``): ``"process"`` adds
#: the multiprocess tier of :mod:`repro.exec.procpool`, ``"thread"``
#: forces the thread pool, ``"inline"`` forces serial execution and
#: ``"auto"`` (the default) keeps the platform-aware behaviour.
EXECUTOR_CHOICES = ("auto", "inline", "thread", "process")


def threads_can_parallelise() -> bool:
    """Whether pool threads can actually overlap the shard traversals.

    Pure-Python workers need both more than one core and a free-threaded
    interpreter (PEP 703, ``python3.13t``+) to run concurrently; under
    the GIL the pool would merely interleave them with extra switches.
    """
    if (os.cpu_count() or 1) <= 1:
        return False
    gil_enabled = getattr(sys, "_is_gil_enabled", None)
    return gil_enabled is not None and not gil_enabled()


class ShardExecutor:
    """Runs one task per shard, first shard inline, the rest pooled."""

    is_process = False

    def __init__(self, max_workers: int | None = None, mode: str = "auto") -> None:
        if max_workers is None:
            max_workers = min(_MAX_WORKERS, os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        if mode not in EXECUTOR_MODES:
            raise ValueError(f"unknown executor mode: {mode!r}")
        self._max_workers = max_workers
        self._mode = mode
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self.tasks_dispatched = 0
        self.tasks_inlined = 0

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def mode(self) -> str:
        return self._mode

    def effective_mode(self) -> str:
        """Where tasks actually run under the current platform."""
        return "thread" if self._use_pool() else "inline"

    def _use_pool(self) -> bool:
        if self._mode == "threads":
            return True
        if self._mode == "inline":
            return False
        return threads_can_parallelise()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        pool = self._pool
        if pool is None:
            with self._lock:
                pool = self._pool
                if pool is None:
                    pool = ThreadPoolExecutor(
                        max_workers=self._max_workers,
                        thread_name_prefix="repro-shard",
                    )
                    self._pool = pool
        return pool

    def run(self, tasks: Sequence[Callable[[], T]]) -> list[T]:
        """Run every task, returning results in task order.

        The first task runs on the calling thread — the pool only ever
        sees tasks 1..N-1, so the 1-shard (default) configuration is
        byte-for-byte the pre-sharding execution with zero dispatch
        cost.  When the platform cannot overlap the workers (``mode
        "auto"`` on a GIL-bound or single-core interpreter) every task
        runs inline in shard order instead.  Exceptions propagate to the
        caller (the first one raised, after every future completed, so no
        worker leaks a running traversal into the next query).
        """
        if not tasks:
            return []
        if len(tasks) == 1 or not self._use_pool():
            self.tasks_inlined += len(tasks)
            return [task() for task in tasks]
        self.tasks_inlined += 1
        self.tasks_dispatched += len(tasks) - 1
        pool = self._ensure_pool()
        futures = [pool.submit(task) for task in tasks[1:]]
        try:
            first = tasks[0]()
        finally:
            done = [future.exception() for future in futures]
        for error in done:
            if error is not None:
                raise error
        return [first] + [future.result() for future in futures]

    def shutdown(self) -> None:
        """Stop the pool threads (tests; engines never need to call this)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def close(self) -> None:
        """Alias of :meth:`shutdown` (uniform lifecycle with the process pool)."""
        self.shutdown()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_DEFAULT_EXECUTOR = ShardExecutor()


def default_executor() -> ShardExecutor:
    """The process-wide executor shared by every engine."""
    return _DEFAULT_EXECUTOR


#: Executors resolved from config knobs, shared per (mode, workers) so
#: every engine with the same configuration reuses one warm pool.
_RESOLVED: dict[tuple[str, int], object] = {}
_RESOLVE_LOCK = threading.Lock()


def resolve_executor(mode: str = "auto", workers: int = 0):
    """The executor for a config's ``executor``/``workers`` knobs.

    ``"auto"`` with the default worker count is the process-wide
    platform-aware executor (inline under the GIL, threaded on a
    free-threaded multi-core build — never multiprocess, which stays
    opt-in); explicit modes get a dedicated, memoised executor.  The
    returned object always offers ``run(closures)`` — the multiprocess
    executor runs closure batches inline and only parallelises
    recipe-based :class:`~repro.exec.procpool.ProcessTask` batches via
    ``run_tasks``.
    """
    if mode not in EXECUTOR_CHOICES:
        raise ValueError(f"unknown executor: {mode!r}")
    if workers < 0:
        raise ValueError("workers must be non-negative")
    if mode == "auto" and workers == 0:
        return default_executor()
    key = (mode, workers)
    with _RESOLVE_LOCK:
        executor = _RESOLVED.get(key)
        if executor is None or getattr(executor, "_closed", False):
            if mode == "process":
                from .procpool import process_executor

                executor = process_executor(workers)
            else:
                thread_mode = {"auto": "auto", "thread": "threads", "inline": "inline"}[mode]
                executor = ShardExecutor(max_workers=workers or None, mode=thread_mode)
            _RESOLVED[key] = executor
        return executor


def shutdown_executors() -> None:
    """Close the default and every resolved executor (tests / exit)."""
    with _RESOLVE_LOCK:
        executors = list(_RESOLVED.values())
        _RESOLVED.clear()
    for executor in executors:
        executor.close()  # type: ignore[attr-defined]
    _DEFAULT_EXECUTOR.close()


atexit.register(shutdown_executors)


def merge_shard_stats(target: PruningStats, shard_stats: Sequence[PruningStats]) -> None:
    """Fold per-shard traversal counters into a scorer's cumulative stats.

    Each shard worker traverses with its own fresh :class:`PruningStats`
    (the shared object would race), and every driver counts itself as one
    query — so a naive sum would report N queries (and N× nothing else)
    for one logical query.  The merge therefore counts the query once and
    sums everything else: per-shard term passes, candidates and
    evictions are genuinely distinct units of work, and the candidate
    partition guarantees ``candidates_total`` sums to exactly the serial
    count (no candidate is routed to two shards).  ``rescored`` stays a
    caller-side counter — the merge-and-rescore pass happens after the
    shards are joined, on the union of their survivor selections.
    """
    target.queries += 1
    for stats in shard_stats:
        for name in PruningStats.__slots__:
            if name != "queries":
                setattr(target, name, getattr(target, name) + getattr(stats, name))
