"""The process execution tier: shared-memory snapshots, θ slab, worker pool.

Covers the satellite contracts of the multiprocess executor:

* snapshot publish → attach round-trip, including a probe executed in a
  *spawned worker process* against the shared segment;
* segment unlink on close/release (no ``/dev/shm`` leaks);
* stale-epoch / stale-uid attach rejection;
* the cross-process θ slab's monotone, NaN-proof seqlock semantics;
* executor resolution, memoisation and lifecycle (close / context
  manager), and the fallback recovery path of the process pool.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exec import (
    ProcessShardExecutor,
    ProcessTask,
    ShardExecutor,
    SnapshotUnavailable,
    ThetaSlab,
    default_executor,
    publish_snapshot,
    resolve_executor,
    shard_of,
    shard_stats_from,
    snapshot_registry,
)
from repro.exec.procpool import _dense_entries
from repro.exec.shm import AttachedSnapshot
from repro.index import FieldedIndex, columnar_view
from repro.search.mlm import candidate_term_columns, query_candidates
from repro.topk import NO_THRESHOLD, PruningStats

DOCS = {
    "dbr:Forrest_Gump": {"names": ["forrest", "gump"], "text": ["film", "drama", "hanks"]},
    "dbr:Apollo_13": {"names": ["apollo", "13"], "text": ["film", "space", "hanks"]},
    "dbr:Cast_Away": {"names": ["cast", "away"], "text": ["film", "island", "hanks"]},
    "dbr:Tom_Hanks": {"names": ["tom", "hanks"], "text": ["actor", "hanks"]},
    "dbr:Drama": {"names": ["drama"], "text": ["genre"]},
}


def small_index() -> FieldedIndex:
    index = FieldedIndex(["names", "text"])
    for doc_id, fields in DOCS.items():
        index.add_document(doc_id, fields)
    return index


def segment_exists(name: str) -> bool:
    """Whether the shm segment is still linked (POSIX /dev/shm backing)."""
    if os.path.isdir("/dev/shm"):
        return os.path.exists(os.path.join("/dev/shm", name))
    try:  # pragma: no cover - non-tmpfs platforms
        AttachedSnapshot(name)
    except SnapshotUnavailable:
        return False
    return True


class TestSnapshotRoundTrip:
    def test_publish_attach_roundtrip(self):
        index = small_index()
        view = columnar_view(index)
        published = publish_snapshot(index, view)
        try:
            attached = AttachedSnapshot(
                published.name, expected_uid=index.uid, expected_epoch=index.epoch
            )
            try:
                assert attached.num_documents == view.num_documents
                assert attached.fields == list(index.fields)
                for field in index.fields:
                    np.testing.assert_array_equal(
                        attached.field_lengths(field), view.field_lengths(field)
                    )
                    for term in index.field_index(field).vocabulary():
                        expected = view.postings(field, term)
                        got = attached.postings(field, term)
                        assert got is not None and expected is not None
                        np.testing.assert_array_equal(got.ordinals, expected.ordinals)
                        np.testing.assert_array_equal(
                            got.frequencies, expected.frequencies
                        )
            finally:
                attached.close()
        finally:
            published.close()

    @pytest.mark.parametrize("method, param", [("dirichlet", 100.0), ("jelinek-mercer", 0.1)])
    def test_worker_columns_equal_the_parents_sliced_columns(self, method, param):
        """A worker builds its bucket's LM columns = the parent's, owner-mask sliced."""
        index = small_index()
        view = columnar_view(index)
        terms = ["hanks", "drama", "qqqzzz"]
        candidates = query_candidates(view, index.fields, terms)
        statistics = index.statistics()
        recipes = [
            (
                term,
                [
                    (field, weight, param * statistics.collection_probability(field, term))
                    for field, weight in (("names", 0.6), ("text", 0.4))
                ],
            )
            for term in terms
        ]
        parent = candidate_term_columns(view, candidates, recipes, method, param)
        published = publish_snapshot(index, view)
        try:
            attached = AttachedSnapshot(published.name)
            try:
                owners = view.shard_map(2)[candidates]
                for shard in range(2):
                    mask = owners == shard
                    payload = {
                        "smoothing": (method, param),
                        "terms": [
                            {"key": term, "term": term, "floor": 0.0, "upper": 0.0, "fields": fields}
                            for term, fields in recipes
                        ],
                        "candidates": candidates[mask],
                    }
                    entries = _dense_entries(attached, payload)
                    for entry, column in zip(entries, parent):
                        np.testing.assert_array_equal(entry.contributions, column[mask])
            finally:
                attached.close()
        finally:
            published.close()

    @pytest.mark.parametrize("num_shards", [2, 3, 5])
    def test_shard_owners_match_parent_routing(self, num_shards):
        index = small_index()
        view = columnar_view(index)
        published = publish_snapshot(index, view)
        try:
            attached = AttachedSnapshot(published.name)
            try:
                expected = [shard_of(doc_id, num_shards) for doc_id in view.doc_ids]
                np.testing.assert_array_equal(
                    attached.shard_owners(num_shards), np.asarray(expected)
                )
            finally:
                attached.close()
        finally:
            published.close()

    def test_close_unlinks_segment(self):
        index = small_index()
        published = publish_snapshot(index, columnar_view(index))
        name = published.name
        assert segment_exists(name)
        published.close()
        assert not segment_exists(name)
        published.close()  # idempotent
        with pytest.raises(SnapshotUnavailable):
            AttachedSnapshot(name)

    def test_stale_epoch_attach_rejected(self):
        index = small_index()
        published = publish_snapshot(index, columnar_view(index))
        try:
            with pytest.raises(SnapshotUnavailable):
                AttachedSnapshot(
                    published.name,
                    expected_uid=index.uid,
                    expected_epoch=index.epoch + 1,
                )
            with pytest.raises(SnapshotUnavailable):
                AttachedSnapshot(published.name, expected_uid=index.uid + 1)
            # The right expectation still attaches after the rejections.
            attached = AttachedSnapshot(
                published.name, expected_uid=index.uid, expected_epoch=index.epoch
            )
            attached.close()
        finally:
            published.close()

    def test_registry_replaces_older_epoch(self):
        registry = snapshot_registry()
        index = small_index()
        first = registry.publish(index, columnar_view(index))
        assert first is not None
        first_name = first.name
        index.add_document("dbr:Philadelphia", {"names": ["philadelphia"], "text": ["film"]})
        second = registry.publish(index, columnar_view(index))
        assert second is not None and second.epoch == index.epoch
        try:
            # The newer epoch replaced the older segment for this uid.
            assert not segment_exists(first_name)
            assert registry.publish(index, columnar_view(index)) is second
        finally:
            registry.release(index.uid)
        assert not segment_exists(second.name)

    def test_release_is_scoped_by_uid(self):
        registry = snapshot_registry()
        left, right = small_index(), small_index()
        published_left = registry.publish(left, columnar_view(left))
        published_right = registry.publish(right, columnar_view(right))
        assert published_left is not None and published_right is not None
        registry.release(left.uid)
        assert not segment_exists(published_left.name)
        assert segment_exists(published_right.name)
        registry.release(right.uid)
        assert not segment_exists(published_right.name)


class TestThetaSlab:
    def test_kth_largest_of_union_pool(self):
        slab = ThetaSlab.create(k=2, num_slots=2)
        try:
            assert slab.value() == NO_THRESHOLD
            assert slab.offer(0, [5.0, 4.0, 3.0]) == 4.0  # extra bounds truncated to k
            assert slab.offer(1, [6.0]) == 5.0  # union pool {5, 4, 6} → 2nd largest
        finally:
            slab.close()

    def test_theta_is_monotone(self):
        slab = ThetaSlab.create(k=2, num_slots=2)
        try:
            slab.offer(0, [9.0, 8.0])
            assert slab.value() == 8.0
            # A shard replacing its pool with worse bounds cannot lower θ:
            # the global-max cell keeps the best threshold ever observed.
            assert slab.offer(0, [1.0, 1.0]) == 8.0
        finally:
            slab.close()

    def test_primed_floor_and_nan_filtering(self):
        slab = ThetaSlab.create(k=2, num_slots=1, primed=10.0)
        try:
            assert slab.value() == 10.0
            assert slab.offer(0, [float("nan"), 3.0, 2.0]) == 10.0
        finally:
            slab.close()

    def test_attach_sees_writer_offers(self):
        slab = ThetaSlab.create(k=1, num_slots=2)
        try:
            reader = ThetaSlab.attach(slab.descriptor)
            try:
                slot = slab.slot(1)
                assert slot.value == NO_THRESHOLD
                slot.offer([7.5])
                assert reader.value() == 7.5
            finally:
                reader.close()
        finally:
            slab.close()
        with pytest.raises(SnapshotUnavailable):
            ThetaSlab.attach({"name": "psm-gone-xyz", "k": 1, "slots": 1})

    def test_slot_range_checked(self):
        slab = ThetaSlab.create(k=1, num_slots=2)
        try:
            with pytest.raises(IndexError):
                slab.slot(2)
        finally:
            slab.close()


class TestExecutorResolution:
    def test_auto_default_is_process_wide(self):
        assert resolve_executor("auto", 0) is default_executor()

    def test_memoised_per_mode_and_workers(self):
        first = resolve_executor("thread", 2)
        assert resolve_executor("thread", 2) is first
        assert resolve_executor("thread", 3) is not first
        assert resolve_executor("inline", 2) is not first

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            resolve_executor("fiber", 1)
        with pytest.raises(ValueError):
            resolve_executor("thread", -1)

    def test_closed_process_executor_is_recreated(self):
        first = resolve_executor("process", 2)
        assert isinstance(first, ProcessShardExecutor) and first.is_process
        first.close()
        replacement = resolve_executor("process", 2)
        assert replacement is not first and not replacement._closed

    def test_inline_mode_never_pools(self):
        executor = resolve_executor("inline", 4)
        assert executor.effective_mode() == "inline"
        assert executor.run([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]

    def test_thread_executor_context_manager(self):
        with ShardExecutor(max_workers=2, mode="threads") as executor:
            assert executor.effective_mode() == "thread"
            assert executor.run([lambda: "a", lambda: "b"]) == ["a", "b"]


class TestShardStatsFrom:
    def test_passthrough_and_dict_coercion(self):
        stats = PruningStats()
        assert shard_stats_from(stats) is stats
        stats.queries = 1
        stats.terms_total = 4
        rebuilt = shard_stats_from(stats.as_dict())
        assert rebuilt.as_dict() == stats.as_dict()


@pytest.fixture(scope="module")
def process_pool():
    """A private two-worker pool, torn down with the module."""
    executor = ProcessShardExecutor(max_workers=2)
    yield executor
    executor.close()


def probe_task(published, field: str, term: str, shards: int) -> ProcessTask:
    payload = {
        "kind": "probe",
        "snapshot": published.descriptor,
        "field": field,
        "term": term,
        "shards": shards,
    }
    return ProcessTask(payload, fallback=lambda: {"fallback": True})


class TestProcessPool:
    def test_probe_runs_in_spawned_worker(self, process_pool):
        index = small_index()
        view = columnar_view(index)
        published = publish_snapshot(index, view)
        try:
            # Task 0 always runs inline via its fallback; tasks 1.. reach
            # the spawned workers and answer from the shared segment.
            results = process_pool.run_tasks(
                [
                    probe_task(published, "text", "hanks", 3),
                    probe_task(published, "text", "hanks", 3),
                    probe_task(published, "names", "no-such-term", 2),
                ]
            )
            assert results[0] == {"fallback": True}
            remote = results[1]
            assert remote["num_documents"] == view.num_documents
            assert remote["fields"] == list(index.fields)
            expected = view.postings("text", "hanks")
            np.testing.assert_array_equal(remote["ordinals"], expected.ordinals)
            np.testing.assert_array_equal(remote["frequencies"], expected.frequencies)
            np.testing.assert_array_equal(remote["lengths"], view.field_lengths("text"))
            np.testing.assert_array_equal(
                remote["owners"],
                np.asarray([shard_of(doc_id, 3) for doc_id in view.doc_ids]),
            )
            assert results[2]["ordinals"] is None
            assert process_pool.tasks_dispatched >= 2
            assert process_pool.snapshot_attaches >= 1
        finally:
            published.close()

    def test_stale_snapshot_recovers_via_fallback(self, process_pool):
        index = small_index()
        published = publish_snapshot(index, columnar_view(index))
        published.close()  # unlink before dispatch: workers must fail to attach
        recovered_before = process_pool.tasks_recovered
        results = process_pool.run_tasks(
            [
                probe_task(published, "text", "film", 2),
                probe_task(published, "text", "film", 2),
            ]
        )
        assert results == [{"fallback": True}, {"fallback": True}]
        assert process_pool.tasks_recovered == recovered_before + 1

    def test_single_task_batches_never_dispatch(self, process_pool):
        dispatched = process_pool.tasks_dispatched
        results = process_pool.run_tasks(
            [ProcessTask({"kind": "probe"}, fallback=lambda: 42)]
        )
        assert results == [42]
        assert process_pool.tasks_dispatched == dispatched

    def test_closure_batches_degrade_inline(self, process_pool):
        assert process_pool.run([lambda: 1, lambda: 2]) == [1, 2]

    def test_closed_pool_falls_back_inline(self):
        executor = ProcessShardExecutor(max_workers=2)
        executor.close()
        executor.close()  # idempotent
        results = executor.run_tasks(
            [
                ProcessTask({"kind": "probe"}, fallback=lambda: "a"),
                ProcessTask({"kind": "probe"}, fallback=lambda: "b"),
            ]
        )
        assert results == ["a", "b"]
