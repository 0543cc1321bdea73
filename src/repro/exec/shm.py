"""Shared-memory snapshot store and the cross-process θ slab.

The process-parallel execution tier (``executor="process"``) ships no
posting data through queues: the parent serialises one per-epoch
:class:`~repro.index.columnar.ColumnarIndex` into a single
``multiprocessing.shared_memory`` segment and workers read it through
numpy views over the same physical pages — zero-copy for offsets,
ordinals and CRCs, with float64 copies of the int64 length columns and
of each queried term's frequencies.  The columnar arrays
are contiguous and immutable per epoch, which is exactly what makes
this safe: a published segment is never written again.

Since PR 9 the segment *format* lives in :mod:`repro.storage.codec`
(magic + version header, JSON manifest, 64-aligned array blobs,
per-array CRC32) and this module is the shared-memory **backend**:
:func:`publish_snapshot` runs the codec's encoder into a fresh
``SharedMemory`` mapping, and
:class:`AttachedSnapshot` is the codec's :class:`SegmentView` bound to
an attached segment.  The mmap'd-file backend over the same codec is
:mod:`repro.storage.diskstore`.

The manifest carries ``uid``/``epoch`` of the source index so attachers
can reject stale segments (:class:`SnapshotUnavailable`), the per-field
document-length columns, one posting CSR per field (terms, offsets,
ordinals, frequencies) and a per-document CRC column from which any
shard count's ownership map is derived (``crcs % num_shards`` matches
:func:`repro.exec.sharding.shard_of` exactly).

Published segments live in one :class:`SnapshotRegistry` keyed by
index uid (:func:`repro.index.fielded_index.next_index_uid` is allocated
from one process-wide counter, so uids never collide).

The θ broadcast between processes is a :class:`ThetaSlab`: one float64
shared-memory slab with a per-shard seqlocked slot of top-k score lower
bounds plus a monotone global-max cell.  Readers that observe a torn
slot simply skip it — a missing offer only loosens θ, and the pruned
drivers are sound under any θ that never exceeds the true k-th best
bound, so races cost tightness, never correctness.  The slab presents
the same duck-type as :class:`~repro.topk.SharedThresholdSlot`
(``.value`` / ``.offer(bounds) -> float``), so the traversal kernels
cannot tell a cross-process θ from a cross-thread one.
"""

from __future__ import annotations

import atexit
import threading
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..storage.codec import (
    SegmentBuilder,
    SegmentView,
    SnapshotUnavailable,
    encode_graph_topology,
    encode_index_snapshot,
)
from ..topk import NO_THRESHOLD, threshold_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..index.columnar import ColumnarIndex
    from ..index.fielded_index import FieldedIndex
    from ..kg.topology import GraphTopology

__all__ = [
    "AttachedSnapshot",
    "PublishedSnapshot",
    "SnapshotRegistry",
    "SnapshotSource",
    "SnapshotUnavailable",
    "ThetaSlab",
    "ThetaSlabSlot",
    "attach_shared_memory",
    "publish_graph_topology",
    "publish_snapshot",
    "release_snapshots",
    "snapshot_registry",
]


class SnapshotSource(NamedTuple):
    """Minimal ``(uid, epoch)`` publish handle.

    The registry only reads ``uid``/``epoch`` off whatever it is asked to
    publish; passing this explicit pair lets a caller pin the *pinned
    view's* epoch (e.g. the epoch a graph topology was built at)
    rather than a live index property that may have advanced since.
    """

    uid: int
    epoch: int


_ATTACH_LOCK = threading.Lock()


def attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    On 3.13+ ``track=False`` expresses this directly; earlier
    interpreters register every attach with the resource tracker, which
    would unlink the (still-published) segment when the attaching
    process exits (bpo-38119) — there the registration is suppressed for
    the duration of the attach instead.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    with _ATTACH_LOCK:  # pragma: no cover - interpreter-version dependent
        original = resource_tracker.register

        def register(name: str, rtype: str, _original=original) -> None:
            if rtype != "shared_memory":
                _original(name, rtype)

        resource_tracker.register = register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


# --------------------------------------------------------------------- #
# Publishing
# --------------------------------------------------------------------- #
class PublishedSnapshot:
    """A snapshot segment owned (and eventually unlinked) by this process."""

    def __init__(
        self, segment: shared_memory.SharedMemory, uid: int, epoch: int, nbytes: int
    ) -> None:
        self._segment = segment
        self.uid = uid
        self.epoch = epoch
        self.nbytes = nbytes
        self._closed = False

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def descriptor(self) -> dict[str, object]:
        """The picklable attach handle workers receive in task payloads."""
        return {"name": self._segment.name, "uid": self.uid, "epoch": self.epoch}

    def close(self) -> None:
        """Release and unlink the segment (idempotent).

        Workers already attached keep their mapping (POSIX unlink
        semantics); late attachers get :class:`SnapshotUnavailable` and
        the dispatcher falls back to inline execution.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._segment.close()
            self._segment.unlink()
        except (FileNotFoundError, BufferError):  # pragma: no cover - already gone
            pass


def _publish_segment(
    manifest: dict[str, object], builder: SegmentBuilder, uid: int, epoch: int
) -> PublishedSnapshot:
    """Write one encoded snapshot into a fresh shared-memory segment."""
    encoded = SegmentBuilder.encode_manifest(manifest)
    total, _ = builder.total_size(encoded)
    segment = shared_memory.SharedMemory(create=True, size=total)
    try:
        builder.write_into(segment.buf, encoded)
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    return PublishedSnapshot(segment, uid, epoch, total)


def publish_snapshot(index: FieldedIndex, view: ColumnarIndex) -> PublishedSnapshot:
    """Serialise one columnar index epoch into a shared-memory segment.

    Each field's whole posting CSR is placed (workers must be able to
    serve any query against the snapshot), together with the per-field
    length columns and the per-document CRC column.
    """
    manifest, builder = encode_index_snapshot(index, view)
    return _publish_segment(manifest, builder, index.uid, index.epoch)


def publish_graph_topology(
    source: SnapshotSource, topology: GraphTopology
) -> PublishedSnapshot:
    """Serialise one epoch's columnar graph topology into a segment.

    The manifest carries the sorted entity/predicate/type string tables
    plus both CSR adjacency directions, the per-type member-ordinal CSR
    and the pre/post interval encoding.  ``source`` pins the publishing
    graph's identity and the *topology's* epoch, so attach checks reject
    a segment left over from an earlier graph state.
    """
    manifest, builder = encode_graph_topology(source, topology)
    return _publish_segment(manifest, builder, source.uid, source.epoch)


# --------------------------------------------------------------------- #
# Attaching (worker side)
# --------------------------------------------------------------------- #
class AttachedSnapshot(SegmentView):
    """The codec's :class:`SegmentView` over an attached shm segment.

    Checksum verification is skipped on this hot worker-attach path: a
    shared-memory segment cannot outlive the publishing process, so the
    only integrity risks are the uid/epoch staleness the constructor
    already checks.
    """

    def __init__(
        self,
        name: str,
        expected_uid: int | None = None,
        expected_epoch: int | None = None,
    ) -> None:
        try:
            self._segment = attach_shared_memory(name)
        except (FileNotFoundError, ValueError) as error:
            raise SnapshotUnavailable(f"snapshot segment {name!r} is gone") from error
        try:
            super().__init__(
                self._segment.buf,
                name=name,
                expected_uid=expected_uid,
                expected_epoch=expected_epoch,
            )
        except BaseException:
            self._detach()
            raise

    def _detach(self) -> None:
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - caller still holds views
            pass

    def close(self) -> None:
        """Drop cached views and detach (never unlinks — not the owner)."""
        self.release_views()
        self._detach()


# --------------------------------------------------------------------- #
# Registry (parent side)
# --------------------------------------------------------------------- #
class SnapshotRegistry:
    """Process-wide cache of published snapshots, one per index uid.

    Publishing a newer epoch of the same uid unlinks the older segment
    (attached workers keep serving their mapping; late attachers fall
    back inline).  Publish failures are memoised per (uid, epoch) so a
    segment that cannot be built is attempted once, not per query.

    Uids can be *disabled* (``storage="off"``): a disabled uid's publish
    requests return ``None`` without building anything, so the process
    tier degrades to its inline fallback for that engine only.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshots: dict[int, PublishedSnapshot] = {}
        self._failed: set[tuple[int, int]] = set()
        self._disabled: set[int] = set()
        self.publishes = 0
        self.published_bytes = 0

    def publish(self, source, view, builder=publish_snapshot) -> PublishedSnapshot | None:
        """Publish (or reuse) one ``(uid, epoch)``'s segment.

        ``source`` is anything with ``uid``/``epoch`` (a live index or an
        explicit :class:`SnapshotSource`); ``builder`` is the snapshot
        serialiser for the view's kind — :func:`publish_snapshot` for
        columnar postings (the default), :func:`publish_graph_topology`
        for a graph topology.
        """
        key = (source.uid, source.epoch)
        with self._lock:
            if source.uid in self._disabled:
                return None
            current = self._snapshots.get(source.uid)
            if current is not None and current.epoch == source.epoch:
                return current
            if key in self._failed:
                return None
            try:
                fresh = builder(source, view)
            except Exception:  # noqa: BLE001 - degrade to inline execution
                self._failed.add(key)
                return None
            if current is not None:
                current.close()
            self._snapshots[source.uid] = fresh
            self.publishes += 1
            self.published_bytes += fresh.nbytes
            return fresh

    def disable(self, uid: int) -> None:
        """Stop publishing for ``uid`` (``storage="off"``); release any segment."""
        with self._lock:
            self._disabled.add(uid)
            snapshot = self._snapshots.pop(uid, None)
        if snapshot is not None:
            snapshot.close()

    def enable(self, uid: int) -> None:
        """Re-allow publishing for a previously disabled ``uid``."""
        with self._lock:
            self._disabled.discard(uid)

    def release(self, uid: int | None = None) -> None:
        """Unlink one uid's snapshot (or every snapshot when ``None``).

        Idempotent: releasing an unknown or already released uid is a
        no-op, and the underlying segments tolerate double-close.
        """
        with self._lock:
            if uid is None:
                doomed = list(self._snapshots.values())
                self._snapshots.clear()
            else:
                snapshot = self._snapshots.pop(uid, None)
                doomed = [snapshot] if snapshot is not None else []
        for snapshot in doomed:
            snapshot.close()

    def active(self) -> int:
        with self._lock:
            return len(self._snapshots)


_REGISTRY = SnapshotRegistry()


def _release_registry_at_exit() -> None:
    """Release whatever registry is current *at exit time*.

    Registered once at import; reads ``_REGISTRY`` late so tests (or
    anything else) that swap the module-level registry never leave the
    atexit hook holding — and unlinking through — a stale instance.
    """
    _REGISTRY.release()


atexit.register(_release_registry_at_exit)


def snapshot_registry() -> SnapshotRegistry:
    """The process-wide snapshot registry shared by every engine."""
    return _REGISTRY


def release_snapshots(uid: int | None = None) -> None:
    """Convenience shim over :meth:`SnapshotRegistry.release`."""
    _REGISTRY.release(uid)


# --------------------------------------------------------------------- #
# Cross-process θ slab
# --------------------------------------------------------------------- #
class ThetaSlabSlot:
    """One shard's writer handle — the ``SharedThresholdSlot`` duck-type."""

    __slots__ = ("_slab", "_slot")

    def __init__(self, slab: ThetaSlab, slot: int) -> None:
        self._slab = slab
        self._slot = slot

    @property
    def value(self) -> float:
        return self._slab.value()

    def offer(self, bounds) -> float:
        return self._slab.offer(self._slot, bounds)


class ThetaSlab:
    """Cross-process θ broadcast over one shared float64 slab.

    Layout: ``[k, num_slots, primed, global_max]`` then ``num_slots``
    slots of ``[seq, count, bounds[k]]``.  Writers seqlock their own
    slot (odd during write); readers retry a few times and skip torn
    slots.  ``value()`` is the k-th largest of the union pool, floored
    by the primed threshold and the monotone global-max cell — mirroring
    :class:`~repro.topk.SharedThreshold`'s only-rises semantics without
    any cross-process lock.
    """

    def __init__(self, segment: shared_memory.SharedMemory, owner: bool) -> None:
        self._segment = segment
        self._owner = owner
        header = np.ndarray(4, dtype=np.float64, buffer=segment.buf)
        self._k = int(header[0])
        self._num_slots = int(header[1])
        del header
        count = 4 + self._num_slots * (2 + self._k)
        self._array = np.ndarray(count, dtype=np.float64, buffer=segment.buf)
        self._closed = False

    @classmethod
    def create(cls, k: int, num_slots: int, primed: float = NO_THRESHOLD) -> ThetaSlab:
        count = 4 + num_slots * (2 + k)
        segment = shared_memory.SharedMemory(create=True, size=count * 8)
        array = np.ndarray(count, dtype=np.float64, buffer=segment.buf)
        array[:] = 0.0
        array[0] = float(k)
        array[1] = float(num_slots)
        array[2] = primed if primed == primed else NO_THRESHOLD
        array[3] = NO_THRESHOLD
        del array
        return cls(segment, owner=True)

    @classmethod
    def attach(cls, descriptor: dict[str, object]) -> ThetaSlab:
        try:
            segment = attach_shared_memory(str(descriptor["name"]))
        except (FileNotFoundError, ValueError) as error:
            raise SnapshotUnavailable("θ slab is gone") from error
        return cls(segment, owner=False)

    @property
    def descriptor(self) -> dict[str, object]:
        return {"name": self._segment.name, "k": self._k, "slots": self._num_slots}

    def slot(self, slot: int) -> ThetaSlabSlot:
        if not 0 <= slot < self._num_slots:
            raise IndexError(f"slot {slot} out of range (have {self._num_slots})")
        return ThetaSlabSlot(self, slot)

    def offer(self, slot: int, bounds) -> float:
        """Replace one shard's bound pool and return the refreshed θ."""
        clean = [bound for bound in bounds if bound == bound][: self._k]
        array = self._array
        base = 4 + slot * (2 + self._k)
        seq = array[base]
        array[base] = seq + 1.0  # odd: write in progress
        array[base + 1] = float(len(clean))
        if clean:
            array[base + 2 : base + 2 + len(clean)] = clean
        array[base] = seq + 2.0  # even: stable
        return self.value()

    def value(self) -> float:
        """The live θ: never exceeds the true k-th best lower bound."""
        array = self._array
        pool: list[float] = []
        for slot in range(self._num_slots):
            base = 4 + slot * (2 + self._k)
            for _ in range(4):
                first = array[base]
                if first != first or int(first) % 2:
                    continue  # torn write — retry, then skip (sound)
                count = int(array[base + 1])
                count = max(0, min(count, self._k))
                values = array[base + 2 : base + 2 + count].tolist()
                if array[base] == first:
                    pool.extend(values)
                    break
        threshold = threshold_of(pool, self._k) if len(pool) >= self._k else NO_THRESHOLD
        primed = array[2]
        if primed > threshold:
            threshold = primed
        best = array[3]
        if best > threshold:
            threshold = best
        elif threshold > best:
            array[3] = threshold  # racy max: losers only loosen θ
        return threshold

    def close(self) -> None:
        """Detach; the creating side also unlinks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._array = None  # type: ignore[assignment]
        try:
            self._segment.close()
            if self._owner:
                self._segment.unlink()
        except (FileNotFoundError, BufferError):  # pragma: no cover
            pass
