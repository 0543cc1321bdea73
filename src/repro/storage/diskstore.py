"""The mmap'd-file snapshot store: durable, epoch-tagged segments.

Same codec as the shared-memory tier, different home for the bytes: a
snapshot directory holds one subdirectory per *role key* (stable
strings like ``"search-index"`` — index uids are process-local counters
and mean nothing across restarts), each containing epoch-tagged segment
files::

    <root>/
        MANIFEST.json           atomic pointer: key -> current entry
        search-index/
            42.snap             one codec segment (header+manifest+arrays)
        feature-tables/
            17.snap

Every write is temp-then-rename, so readers never observe a torn file:
a segment file appears fully written or not at all, and the
``MANIFEST.json`` pointer flips atomically to the new epoch.  Stale
epochs of a key are garbage-collected after the pointer flip — the same
replace-then-release discipline the shm registry applies, with the
uid/epoch embedded in each segment cross-checked against the manifest
entry on attach.

Attaching maps the file read-only (``np.memmap``) and decodes it with
eager CRC verification — unlike a shared-memory segment, a file
survives process restarts and can rot on disk, so the whole segment is
checksummed before anything scores against it (one sequential CRC32
recorded in the manifest entry at publish; manifest entries without it
fall back to the codec's per-array descriptor CRCs).  The resulting
:class:`DiskSnapshot` is the codec's :class:`SegmentView`: the same
zero-copy ``ColumnarIndex`` / ``ColumnarFeatureTables`` reconstruction
surface the process workers use, now backed by the page cache.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from .codec import SegmentBuilder, SegmentView, SnapshotUnavailable

_MANIFEST_NAME = "MANIFEST.json"
_SNAP_SUFFIX = ".snap"


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a same-directory temp + rename."""
    directory = os.path.dirname(path) or "."
    temp = os.path.join(directory, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    with open(temp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


class DiskSnapshot(SegmentView):
    """A read-only ``np.memmap`` over one on-disk snapshot segment.

    Decoded with eager checksum verification; ``close()`` drops the
    cached views and the mapping (idempotent).
    """

    def __init__(
        self,
        path: str,
        *,
        expected_uid: int | None = None,
        expected_epoch: int | None = None,
        expected_crc: int | None = None,
    ) -> None:
        try:
            self._mmap = np.memmap(path, dtype=np.uint8, mode="r")
        except (OSError, ValueError) as error:
            raise SnapshotUnavailable(f"snapshot file {path!r} is gone") from error
        self.path = path
        try:
            # A whole-file CRC from the manifest entry verifies the
            # segment in one sequential pass; without it (older store
            # manifests) fall back to the per-array descriptor CRCs.
            if expected_crc is not None:
                actual = zlib.crc32(memoryview(self._mmap))
                if actual != int(expected_crc):
                    raise SnapshotUnavailable(
                        f"snapshot file {path!r} failed its whole-file checksum"
                    )
            super().__init__(
                self._mmap,
                name=os.path.basename(path),
                expected_uid=expected_uid,
                expected_epoch=expected_epoch,
                verify=expected_crc is None,
            )
        except BaseException:
            self._mmap = None
            raise

    def close(self) -> None:
        self.release_views()
        self._mmap = None


class DiskSnapshotStore:
    """Durable snapshot files under one directory, keyed by role string.

    ``publish`` writes a new epoch's segment and flips the manifest
    pointer; ``attach`` maps and verifies the current epoch of a key.
    Counters mirror the shm registry's so :class:`~repro.stats.StorageStats`
    can report both backends uniformly.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.publishes = 0
        self.published_bytes = 0
        self.attaches = 0
        self.attached_bytes = 0
        self.failures = 0

    # ------------------------------------------------------------------ #
    # Manifest pointer
    # ------------------------------------------------------------------ #
    def _manifest_path(self) -> str:
        return os.path.join(self.root, _MANIFEST_NAME)

    def read_manifest(self) -> dict[str, dict[str, object]]:
        """The current key→entry pointer map (empty when absent)."""
        try:
            with open(self._manifest_path(), encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return {}
        except (OSError, json.JSONDecodeError) as error:
            raise SnapshotUnavailable(
                f"store manifest under {self.root!r} is unreadable"
            ) from error
        if not isinstance(manifest, dict):
            raise SnapshotUnavailable(f"store manifest under {self.root!r} is malformed")
        return manifest

    def entry(
        self, key: str, manifest: dict[str, dict[str, object]] | None = None
    ) -> dict[str, object]:
        """The pointer entry of ``key`` (in ``manifest`` when the caller read one)."""
        entry = (self.read_manifest() if manifest is None else manifest).get(key)
        if not isinstance(entry, dict):
            raise SnapshotUnavailable(f"store has no snapshot for key {key!r}")
        return entry

    # ------------------------------------------------------------------ #
    # Publish
    # ------------------------------------------------------------------ #
    def publish(
        self,
        key: str,
        manifest: dict[str, object],
        builder: SegmentBuilder,
        *,
        extra: dict[str, object] | None = None,
    ) -> dict[str, object]:
        """Write one encoded segment as ``<root>/<key>/<epoch>.snap``.

        Flips the store manifest's pointer for ``key`` atomically, then
        garbage-collects that key's stale epoch files.  ``extra`` rides
        along in the manifest entry (e.g. the graph epoch the segment
        was derived from) and is cross-checked by callers at load time.
        Returns the new manifest entry.
        """
        uid = int(manifest["uid"])  # type: ignore[arg-type]
        epoch = int(manifest["epoch"])  # type: ignore[arg-type]
        key_dir = os.path.join(self.root, key)
        os.makedirs(key_dir, exist_ok=True)

        encoded = SegmentBuilder.encode_manifest(manifest)
        total, _ = builder.total_size(encoded)
        payload = bytearray(total)
        builder.write_into(payload, encoded)

        filename = f"{epoch}{_SNAP_SUFFIX}"
        segment = bytes(payload)
        _atomic_write_bytes(os.path.join(key_dir, filename), segment)

        entry: dict[str, object] = {
            "uid": uid,
            "epoch": epoch,
            "file": f"{key}/{filename}",
            "nbytes": total,
            "crc": zlib.crc32(segment),
        }
        if extra:
            entry.update(extra)
        store_manifest = self.read_manifest()
        store_manifest[key] = entry
        _atomic_write_bytes(
            self._manifest_path(),
            json.dumps(store_manifest, indent=2, sort_keys=True).encode("utf-8"),
        )
        self.publishes += 1
        self.published_bytes += total
        self._collect_stale(key_dir, keep=filename)
        return entry

    def _collect_stale(self, key_dir: str, keep: str) -> None:
        """Remove every other epoch file (and leftover temps) of a key."""
        try:
            names = os.listdir(key_dir)
        except OSError:  # pragma: no cover - directory raced away
            return
        for name in names:
            if name == keep:
                continue
            if name.endswith(_SNAP_SUFFIX) or name.startswith("."):
                try:
                    os.remove(os.path.join(key_dir, name))
                except OSError:  # pragma: no cover - concurrent GC
                    pass

    # ------------------------------------------------------------------ #
    # Attach
    # ------------------------------------------------------------------ #
    def attach(
        self, key: str, manifest: dict[str, dict[str, object]] | None = None
    ) -> DiskSnapshot:
        """Map + verify the current epoch of ``key`` (checksums eager).

        The uid/epoch recorded in the manifest entry must match the pair
        embedded in the segment itself — a swapped or half-replaced file
        raises :class:`SnapshotUnavailable` instead of serving garbage.
        A caller attaching several keys passes the ``manifest`` it read
        once (:meth:`read_manifest`) instead of having it re-read per key.
        """
        try:
            entry = self.entry(key, manifest)
            path = os.path.join(self.root, str(entry["file"]))
            crc = entry.get("crc")
            snapshot = DiskSnapshot(
                path,
                expected_uid=int(entry["uid"]),  # type: ignore[arg-type]
                expected_epoch=int(entry["epoch"]),  # type: ignore[arg-type]
                expected_crc=None if crc is None else int(crc),  # type: ignore[arg-type]
            )
        except SnapshotUnavailable:
            self.failures += 1
            raise
        self.attaches += 1
        self.attached_bytes += int(entry.get("nbytes", 0))  # type: ignore[arg-type]
        return snapshot
