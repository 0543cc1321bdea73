"""Tests for repro.exec: the sharded, batch-parallel execution layer."""

from __future__ import annotations

import threading

import pytest

from repro.exec import (
    ShardExecutor,
    dedupe_batch,
    default_executor,
    merge_shard_stats,
    shard_of,
)
from repro.topk import NO_THRESHOLD, PruningStats, SharedThreshold


class TestSharding:
    def test_shard_of_is_deterministic_and_in_range(self):
        for n in (1, 2, 3, 5, 8):
            for identifier in ("dbr:A", "dbr:B", "ex:F1", ""):
                shard = shard_of(identifier, n)
                assert 0 <= shard < n
                assert shard == shard_of(identifier, n)

    def test_single_shard_routes_everything_to_zero(self):
        assert shard_of("anything", 1) == 0


class TestSharedThreshold:
    def test_publish_is_monotone(self):
        shared = SharedThreshold()
        assert shared.value == NO_THRESHOLD
        shared.publish(1.0)
        shared.publish(0.5)
        assert shared.value == 1.0
        shared.publish(2.0)
        assert shared.value == 2.0

    def test_combine_returns_tightest_and_publishes(self):
        shared = SharedThreshold()
        assert shared.combine(3.0) == 3.0
        assert shared.value == 3.0
        assert shared.combine(1.0) == 3.0  # looser local adopts published
        assert shared.value == 3.0

    def test_nan_never_published(self):
        shared = SharedThreshold(float("nan"))
        assert shared.value == NO_THRESHOLD
        shared.publish(float("nan"))
        assert shared.value == NO_THRESHOLD
        shared.publish(1.5)
        shared.publish(float("nan"))
        assert shared.value == 1.5

    def test_concurrent_publishes_keep_max(self):
        shared = SharedThreshold()
        values = [float(i) for i in range(500)]

        def worker(chunk):
            for value in chunk:
                shared.publish(value)

        threads = [
            threading.Thread(target=worker, args=(values[i::4],)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert shared.value == 499.0


class TestShardExecutor:
    @pytest.mark.parametrize("mode", ["auto", "threads", "inline"])
    def test_results_in_task_order(self, mode):
        executor = ShardExecutor(max_workers=2, mode=mode)
        try:
            assert executor.run([lambda i=i: i * i for i in range(7)]) == [
                i * i for i in range(7)
            ]
        finally:
            executor.shutdown()

    def test_single_task_runs_inline(self):
        executor = ShardExecutor(max_workers=2, mode="threads")
        caller = threading.current_thread().name
        try:
            assert executor.run([lambda: threading.current_thread().name]) == [caller]
        finally:
            executor.shutdown()

    def test_threads_mode_uses_pool_for_tail_tasks(self):
        executor = ShardExecutor(max_workers=2, mode="threads")
        caller = threading.current_thread().name
        try:
            names = executor.run(
                [lambda: threading.current_thread().name for _ in range(3)]
            )
            assert names[0] == caller
            assert all(name != caller for name in names[1:])
        finally:
            executor.shutdown()

    def test_inline_mode_never_leaves_the_caller(self):
        executor = ShardExecutor(max_workers=2, mode="inline")
        caller = threading.current_thread().name
        assert executor.run(
            [lambda: threading.current_thread().name for _ in range(3)]
        ) == [caller] * 3

    @pytest.mark.parametrize("mode", ["threads", "inline"])
    def test_empty_and_errors(self, mode):
        executor = ShardExecutor(max_workers=2, mode=mode)
        try:
            assert executor.run([]) == []

            def boom():
                raise RuntimeError("shard failed")

            with pytest.raises(RuntimeError, match="shard failed"):
                executor.run([lambda: 1, boom, lambda: 3])
        finally:
            executor.shutdown()

    def test_default_executor_is_shared(self):
        assert default_executor() is default_executor()

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ShardExecutor(mode="bogus")


class TestMergeShardStats:
    def test_query_counted_once_everything_else_summed(self):
        target = PruningStats()
        shards = []
        for index in range(3):
            local = PruningStats()
            local.queries = 1  # every driver counts its own traversal
            local.terms_total = 4
            local.terms_skipped = index
            local.candidates_total = 10 * (index + 1)
            local.candidates_pruned = index + 1
            shards.append(local)
        merge_shard_stats(target, shards)
        assert target.queries == 1  # no double-counting across the merge
        assert target.terms_total == 12
        assert target.terms_skipped == 0 + 1 + 2
        assert target.candidates_total == 60
        assert target.candidates_pruned == 6

    def test_merge_accumulates_across_queries(self):
        target = PruningStats()
        shard = PruningStats()
        shard.queries = 1
        shard.candidates_total = 5
        merge_shard_stats(target, [shard])
        merge_shard_stats(target, [shard])
        assert target.queries == 2
        assert target.candidates_total == 10


class TestDedupeBatch:
    def test_duplicates_computed_once(self):
        calls: list[str] = []

        def compute(request: str) -> str:
            calls.append(request)
            return request.upper()

        results = dedupe_batch(["a", "b", "a", "c", "b"], lambda r: r, compute)
        assert results == ["A", "B", "A", "C", "B"]
        assert calls == ["a", "b", "c"]  # first-appearance order, once each

    def test_empty_batch(self):
        assert dedupe_batch([], lambda r: r, lambda r: r) == []
