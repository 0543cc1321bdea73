"""The persistent multiprocess shard worker pool.

``executor="process"`` fans the columnar pruned traversals out over a
small pool of warm, spawn-started worker processes.  The parent never
ships posting data: each task payload carries only a snapshot descriptor
(name/uid/epoch of a shared-memory segment published by
:mod:`repro.exec.shm`), a θ-slab descriptor, the shard assignment and a
compact per-term *recipe* — the picklable scalars (idf weights, bounds,
smoothing masses, normaliser constants) from which the worker rebuilds
the exact contribution columns against its zero-copy snapshot views.
The BM25 columns are memoised per attached snapshot, so a warm worker
serves a query stream against one epoch with the same amortisation as
the parent's per-epoch view memo; the dense language-model columns are
built per query over the worker's candidate bucket, as in the parent.

Dispatch contract (mirrors :class:`~repro.exec.executor.ShardExecutor`):
the first task of every query runs inline on the calling thread via its
``fallback`` closure — the parent is shard 0's worker and participates
in the θ broadcast through its own slab slot — and the remaining tasks
go to per-worker task queues.  Any failure (dead worker, stale snapshot,
pickling surprise) degrades that task to its inline fallback: the
process tier can only ever *add* parallelism, never lose a query.
Results are tagged with a per-query run id so a straggler from an
abandoned run can never leak into the next query's merge.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import queue as queue_module
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from ..topk import PruningStats, SparseKernelTerm, columnar_dense, columnar_sparse
from .shm import AttachedSnapshot, SnapshotUnavailable, ThetaSlab

#: Upper bound on worker processes (same rationale as the thread pool).
_MAX_WORKERS = 8

#: Wall-clock budget for one query's remote results before the parent
#: reclaims the stragglers via their inline fallbacks.
_RESULT_TIMEOUT = 60.0

#: Attached snapshots a worker keeps warm (older epochs age out).
_ATTACH_CACHE = 4


class ProcessTask:
    """One shard's unit of work: a picklable payload + an inline fallback."""

    __slots__ = ("payload", "fallback")

    def __init__(self, payload: dict[str, Any], fallback: Callable[[], Any]) -> None:
        self.payload = payload
        self.fallback = fallback


class _Worker:
    """A spawned worker process and its private task queue."""

    __slots__ = ("process", "tasks")

    def __init__(self, context, results) -> None:
        self.tasks = context.Queue()
        self.process = context.Process(
            target=_worker_main, args=(self.tasks, results), daemon=True
        )
        self.process.start()

    def stop(self) -> None:
        try:
            self.tasks.put_nowait(None)
        except Exception:  # noqa: BLE001 - queue already broken
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=1.0)
        self.tasks.cancel_join_thread()
        self.tasks.close()


class ProcessShardExecutor:
    """Dispatches :class:`ProcessTask` batches to warm worker processes.

    One query at a time (a dispatch lock serialises concurrent engine
    threads — the pool is a process-wide singleton like the thread
    executor); workers are spawned lazily on first use and respawned on
    death, with the dead worker's tasks reclaimed via their fallbacks.
    """

    is_process = True

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is None:
            max_workers = min(_MAX_WORKERS, os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        self._max_workers = max_workers
        self._context = mp.get_context("spawn")
        self._workers: list[_Worker] = []
        self._results = None
        self._lock = threading.Lock()
        self._run_seq = 0
        self._closed = False
        self.tasks_dispatched = 0
        self.tasks_inlined = 0
        self.tasks_recovered = 0
        self.workers_respawned = 0
        self.snapshot_attaches = 0

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def mode(self) -> str:
        return "process"

    def effective_mode(self) -> str:
        return "process"

    def run(self, tasks: Sequence[Callable[[], Any]]) -> list[Any]:
        """Closure batches run inline (only recipe tasks reach the pool)."""
        self.tasks_inlined += len(tasks)
        return [task() for task in tasks]

    def _ensure_workers(self, wanted: int) -> None:
        if self._results is None:
            self._results = self._context.Queue()
        while len(self._workers) < min(wanted, self._max_workers):
            self._workers.append(_Worker(self._context, self._results))

    def _respawn(self, position: int) -> None:
        dead = self._workers[position]
        try:
            dead.tasks.cancel_join_thread()
            dead.tasks.close()
        except Exception:  # noqa: BLE001
            pass
        self._workers[position] = _Worker(self._context, self._results)
        self.workers_respawned += 1

    def run_tasks(self, tasks: Sequence[ProcessTask]) -> list[Any]:
        """Run every task, first inline, the rest in worker processes.

        Returns results in task order.  Every remote failure — a dead or
        stalled worker, a stale snapshot, an unpicklable result — is
        recovered by running that task's fallback inline, so the call
        returns exactly what the inline executor would have produced.
        """
        if not tasks:
            return []
        with self._lock:
            if self._closed or len(tasks) == 1:
                self.tasks_inlined += len(tasks)
                return [task.fallback() for task in tasks]
            return self._run_locked(tasks)

    def _run_locked(self, tasks: Sequence[ProcessTask]) -> list[Any]:
        self._ensure_workers(len(tasks) - 1)
        self._run_seq += 1
        run_id = self._run_seq
        results: list[Any] = [None] * len(tasks)
        pending: dict[int, int] = {}  # task offset -> worker position
        for offset in range(1, len(tasks)):
            position = (offset - 1) % len(self._workers)
            try:
                self._workers[position].tasks.put((run_id, offset, tasks[offset].payload))
            except Exception:  # noqa: BLE001 - queue broken: degrade inline
                results[offset] = tasks[offset].fallback()
                self.tasks_inlined += 1
                continue
            pending[offset] = position
            self.tasks_dispatched += 1
        results[0] = tasks[0].fallback()
        self.tasks_inlined += 1
        self._collect(run_id, tasks, results, pending)
        return results

    def _collect(
        self,
        run_id: int,
        tasks: Sequence[ProcessTask],
        results: list[Any],
        pending: dict[int, int],
    ) -> None:
        deadline = time.monotonic() + _RESULT_TIMEOUT
        while pending:
            try:
                item = self._results.get(timeout=0.2)
            except queue_module.Empty:
                self._reclaim_dead(tasks, results, pending)
                if time.monotonic() > deadline:
                    for offset in sorted(pending):
                        results[offset] = tasks[offset].fallback()
                        self.tasks_recovered += 1
                    pending.clear()
                continue
            received_run, offset, ok, payload, meta = item
            if received_run != run_id or offset not in pending:
                continue  # straggler from an abandoned run
            del pending[offset]
            self.snapshot_attaches += int(meta.get("attached", 0))
            if ok:
                results[offset] = payload
            else:
                results[offset] = tasks[offset].fallback()
                self.tasks_recovered += 1

    def _reclaim_dead(
        self,
        tasks: Sequence[ProcessTask],
        results: list[Any],
        pending: dict[int, int],
    ) -> None:
        dead_positions = {
            position
            for position in set(pending.values())
            if not self._workers[position].process.is_alive()
        }
        if not dead_positions:
            return
        for position in dead_positions:
            self._respawn(position)
        for offset in sorted(
            offset for offset, position in pending.items() if position in dead_positions
        ):
            del pending[offset]
            results[offset] = tasks[offset].fallback()
            self.tasks_recovered += 1

    def close(self) -> None:
        """Stop the workers and drop the queues (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()
        if self._results is not None:
            self._results.cancel_join_thread()
            self._results.close()
            self._results = None

    def __enter__(self) -> ProcessShardExecutor:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #
_ATTACHED: OrderedDict[str, AttachedSnapshot] = OrderedDict()


def _attached_snapshot(descriptor: dict[str, Any], meta: dict[str, int]) -> AttachedSnapshot:
    """Attach (or reuse) the described snapshot, LRU-bounded per worker."""
    name = str(descriptor["name"])
    snapshot = _ATTACHED.get(name)
    if snapshot is not None:
        _ATTACHED.move_to_end(name)
        return snapshot
    snapshot = AttachedSnapshot(
        name,
        expected_uid=int(descriptor["uid"]),
        expected_epoch=int(descriptor["epoch"]),
    )
    meta["attached"] = meta.get("attached", 0) + 1
    _ATTACHED[name] = snapshot
    while len(_ATTACHED) > _ATTACH_CACHE:
        _, stale = _ATTACHED.popitem(last=False)
        stale.close()
    return snapshot


def _field_norms(snapshot: AttachedSnapshot, field: str, b: float, avg_length: float) -> np.ndarray:
    def compute() -> np.ndarray:
        if avg_length <= 0:
            return np.ones(snapshot.num_documents, dtype=np.float64)
        return (1.0 - b) + b * (snapshot.field_lengths(field) / avg_length)

    return snapshot.memoised(("bm25-norms", b, avg_length, field), compute)


def _dense_entries(snapshot: AttachedSnapshot, payload: dict[str, Any]) -> list:
    """Build the dense LM kernel entries of this worker's bucket from the recipes.

    Calls the parent's :func:`~repro.search.mlm.candidate_term_columns`
    over the bucket's candidates — the smoothing masses arrive
    precomputed in the recipe, so each column equals the parent's column
    sliced by the bucket's owner mask, bitwise.  (Even without that, the
    process path only *selects* survivors; the exact re-scoring epilogue
    fixes the ranking.)  Nothing is memoised: the columns are sized by
    the bucket and live for one query.
    """
    from ..search.mlm import candidate_term_columns
    from ..topk import DenseKernelTerm

    method, param = payload["smoothing"]
    recipes = payload["terms"]
    columns = candidate_term_columns(
        snapshot,
        np.asarray(payload["candidates"], dtype=np.int64),
        [(recipe["term"], recipe["fields"]) for recipe in recipes],
        method,
        param,
    )
    return [
        DenseKernelTerm(
            key=recipe["key"], floor=recipe["floor"], upper=recipe["upper"], contributions=column
        )
        for recipe, column in zip(recipes, columns)
    ]


def _bm25_entries(snapshot: AttachedSnapshot, payload: dict[str, Any]) -> list[SparseKernelTerm]:
    """Rebuild single-field BM25 kernel terms from their recipes."""
    field = payload["field"]
    k1 = payload["k1"]
    b = payload["b"]
    avg_length = payload["avg_length"]
    k1_plus_1 = k1 + 1.0
    entries: list[SparseKernelTerm] = []
    for recipe in payload["terms"]:
        term = recipe["term"]
        weight = recipe["weight"]
        upper = recipe["upper"]

        def build(term: str = term, weight: float = weight, upper: float = upper):
            columnar = snapshot.postings(field, term)
            if columnar is None:
                return None
            norms = _field_norms(snapshot, field, b, avg_length)
            tfs = columnar.frequencies
            tf_parts = (tfs * k1_plus_1) / (tfs + k1 * norms[columnar.ordinals])
            return SparseKernelTerm(
                key=term, upper=upper, ordinals=columnar.ordinals, contributions=weight * tf_parts
            )

        entry = snapshot.memoised(("bm25-term", k1, b, avg_length, field, term, weight), build)
        if entry is not None:
            entries.append(entry)
    return entries


def _bm25f_entries(snapshot: AttachedSnapshot, payload: dict[str, Any]) -> list[SparseKernelTerm]:
    """Rebuild BM25F union-column kernel terms from their recipes."""
    k1 = payload["k1"]
    b = payload["b"]
    fields = tuple(tuple(entry) for entry in payload["fields"])
    entries: list[SparseKernelTerm] = []
    for recipe in payload["terms"]:
        term = recipe["term"]
        weight_idf = recipe["weight_idf"]
        upper = recipe["upper"]

        def build(term: str = term, weight_idf: float = weight_idf, upper: float = upper):
            field_postings = [
                (field, weight, snapshot.postings(field, term), avg_length)
                for field, weight, avg_length in fields
            ]
            if all(columnar is None for _, _, columnar, _ in field_postings):
                return None
            union_ordinals = None
            for _, _, columnar, _ in field_postings:
                if columnar is None:
                    continue
                union_ordinals = (
                    columnar.ordinals
                    if union_ordinals is None
                    else np.union1d(union_ordinals, columnar.ordinals)
                )
            weighted_tf = np.zeros(union_ordinals.size, dtype=np.float64)
            for field, weight, columnar, avg_length in field_postings:
                if columnar is None:
                    continue
                norms = _field_norms(snapshot, field, b, avg_length)
                positions = np.searchsorted(union_ordinals, columnar.ordinals)
                weighted_tf[positions] += weight * columnar.frequencies / norms[columnar.ordinals]
            return SparseKernelTerm(
                key=term,
                upper=upper,
                ordinals=union_ordinals,
                contributions=weight_idf * (weighted_tf / (weighted_tf + k1)),
            )

        entry = snapshot.memoised(("bm25f-term", k1, b, fields, term, weight_idf), build)
        if entry is not None:
            entries.append(entry)
    return entries


def _slice_for_shard(
    entries: list[SparseKernelTerm], owners: np.ndarray, shard: int
) -> list[SparseKernelTerm]:
    """Per-shard posting slices — identical to the parent's ownership cut."""
    sliced: list[SparseKernelTerm] = []
    for entry in entries:
        mask = owners[entry.ordinals] == shard
        if not mask.any():
            continue  # no postings here: tightens the shard's upper sums
        sliced.append(
            SparseKernelTerm(
                key=entry.key,
                upper=entry.upper,
                ordinals=entry.ordinals[mask],
                contributions=entry.contributions[mask],
            )
        )
    return sliced


def _execute(payload: dict[str, Any], meta: dict[str, int]) -> Any:
    """Run one task payload against the attached snapshot."""
    snapshot = _attached_snapshot(payload["snapshot"], meta)
    kind = payload["kind"]
    if kind == "probe":
        columnar = snapshot.postings(payload["field"], payload["term"])
        return {
            "num_documents": snapshot.num_documents,
            "fields": snapshot.fields,
            "ordinals": None if columnar is None else np.array(columnar.ordinals),
            "frequencies": None if columnar is None else np.array(columnar.frequencies),
            "lengths": np.array(snapshot.field_lengths(payload["field"])),
            "owners": np.array(snapshot.shard_owners(int(payload.get("shards", 2)))),
        }
    slab = ThetaSlab.attach(payload["theta"])
    try:
        slot = slab.slot(int(payload["slot"]))
        stats = PruningStats()
        if kind == "dense":
            entries = _dense_entries(snapshot, payload)
            candidates = np.asarray(payload["candidates"], dtype=np.int64)
            ordinals, partials = columnar_dense(
                candidates, entries, int(payload["top_k"]), stats, shared=slot
            )
        else:
            builder = _bm25_entries if kind == "bm25" else _bm25f_entries
            entries = builder(snapshot, payload)
            owners = snapshot.shard_owners(int(payload["num_shards"]))
            sliced = _slice_for_shard(entries, owners, int(payload["shard"]))
            ordinals, partials = columnar_sparse(
                sliced,
                int(payload["top_k"]),
                stats,
                snapshot.num_documents,
                shared=slot,
            )
        return np.array(ordinals), np.array(partials), stats.as_dict()
    finally:
        slab.close()


def _worker_main(tasks, results) -> None:  # pragma: no cover - child process
    """Spawn-safe worker entrypoint: drain tasks until the ``None`` sentinel."""
    while True:
        item = tasks.get()
        if item is None:
            break
        run_id, offset, payload = item
        meta: dict[str, int] = {}
        try:
            outcome = _execute(payload, meta)
            results.put((run_id, offset, True, outcome, meta))
        except SnapshotUnavailable as error:
            results.put((run_id, offset, False, f"stale snapshot: {error}", meta))
        except Exception as error:  # noqa: BLE001 - parent recovers via fallback
            results.put((run_id, offset, False, f"{type(error).__name__}: {error}", meta))
    for snapshot in _ATTACHED.values():
        snapshot.close()


def shard_stats_from(counters: Any) -> PruningStats:
    """Coerce a worker's wire-format counter dict back to ``PruningStats``."""
    if isinstance(counters, PruningStats):
        return counters
    stats = PruningStats()
    for name, value in counters.items():
        setattr(stats, name, value)
    return stats


_PROCESS_EXECUTORS: dict[int, ProcessShardExecutor] = {}
_PROCESS_LOCK = threading.Lock()


def process_executor(workers: int = 0) -> ProcessShardExecutor:
    """The process-wide multiprocess executor for a worker count (lazy)."""
    with _PROCESS_LOCK:
        executor = _PROCESS_EXECUTORS.get(workers)
        if executor is None or executor._closed:
            executor = ProcessShardExecutor(max_workers=workers or None)
            _PROCESS_EXECUTORS[workers] = executor
        return executor


def shutdown_process_executors() -> None:
    """Close every pooled multiprocess executor (tests / interpreter exit)."""
    with _PROCESS_LOCK:
        executors = list(_PROCESS_EXECUTORS.values())
        _PROCESS_EXECUTORS.clear()
    for executor in executors:
        executor.close()


atexit.register(shutdown_process_executors)
