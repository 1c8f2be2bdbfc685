"""The durability manager — one object wiring WAL, snapshots and recovery.

:class:`DurabilityManager` owns a *data directory*::

    <data-dir>/
      snapshot-000000000042.ndjson    # newest first wins; one spare kept
      wal/
        shard-000.000000000042.ndjson # per-shard segments, shared base
        shard-001.000000000042.ndjson

Lifecycle
---------
:meth:`open` is called once, before the service starts serving:

* **Fresh directory** — the provided store (typically just generated
  from ``--db``) is snapshotted as the initial recovery point and the
  WAL opens at its version.
* **Existing directory** — the persisted store is recovered (snapshot +
  WAL tail replay, :func:`~.recovery.recover`), the provided store is
  discarded, and the recovered state is immediately re-snapshotted so
  the WAL tail collapses and the next recovery is bounded again.

Either way :meth:`open` installs :meth:`append` as the store's mutation
sink, so a bare store + manager pair logs every direct mutation.  A
serving :class:`~repro.service.OptimizationService` takes the sink over
(``attach_durability``) and calls :meth:`append` itself, first in its
commit path; it then calls :meth:`commit` once per mutation batch, still
under the write lock: buffered frames are flushed, fsynced per policy,
and — when the frame-count or age trigger fires — the store is
snapshotted and the segments rotated.

Configuration is the constructor's arguments (``serve`` passes its
``--wal-fsync`` / ``--wal-fsync-interval`` / ``--snapshot-frames`` /
``--snapshot-age`` flags): ``fsync_policy`` (``batch``),
``fsync_interval`` (``8``), ``snapshot_frames`` (``10000``) and
``snapshot_age`` (``0`` = off).

The age trigger reads an injectable monotonic ``clock`` (never the
calendar clock) and only fires when there are frames to compact.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..engine.storage import MutationRecord, ShardedObjectStore
from .recovery import WAL_SUBDIR, RecoveryReport, recover
from .snapshot import prune_snapshots, write_snapshot
from .wal import FSYNC_POLICIES, WriteAheadLog, purge_segments

__all__ = ["DurabilityManager"]

DEFAULT_FSYNC_POLICY = "batch"
DEFAULT_FSYNC_INTERVAL = 8
DEFAULT_SNAPSHOT_FRAMES = 10_000
DEFAULT_SNAPSHOT_AGE = 0.0


class DurabilityManager:
    """Write-ahead logging + snapshots + recovery for one data directory."""

    def __init__(
        self,
        data_dir: str,
        fsync_policy: Optional[str] = None,
        fsync_interval: Optional[int] = None,
        snapshot_frames: Optional[int] = None,
        snapshot_age: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # ``None`` is what ``serve`` passes for a flag that was not given.
        if fsync_policy is None:
            fsync_policy = DEFAULT_FSYNC_POLICY
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, "
                f"got {fsync_policy!r}"
            )
        if fsync_interval is None:
            fsync_interval = DEFAULT_FSYNC_INTERVAL
        if snapshot_frames is None:
            snapshot_frames = DEFAULT_SNAPSHOT_FRAMES
        if snapshot_age is None:
            snapshot_age = DEFAULT_SNAPSHOT_AGE
        if snapshot_frames < 1:
            raise ValueError(
                f"snapshot_frames must be >= 1, got {snapshot_frames}"
            )
        self.data_dir = data_dir
        self.fsync_policy = fsync_policy
        self.fsync_interval = fsync_interval
        self.snapshot_frames = snapshot_frames
        self.snapshot_age = snapshot_age
        self.snapshot_count = 0
        self._clock = clock
        self._pid = os.getpid()
        self._store: Optional[ShardedObjectStore] = None
        self._wal: Optional[WriteAheadLog] = None
        self._last_snapshot_at = clock()
        self.last_report: Optional[RecoveryReport] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(
        self, store: ShardedObjectStore
    ) -> Tuple[ShardedObjectStore, Optional[RecoveryReport]]:
        """Recover-or-adopt; returns the store to serve and the report.

        A fresh data dir adopts (and snapshots) the provided ``store``;
        an existing one recovers the persisted state instead — the
        provided store is discarded and the *recovered* store returned.
        Either way the returned store has :meth:`append` installed as
        its mutation sink.
        """
        if self._store is not None:
            raise RuntimeError("durability manager is already open")
        os.makedirs(self.data_dir, exist_ok=True)
        report: Optional[RecoveryReport] = None
        if self._has_persisted_state():
            store, report = recover(
                self.data_dir,
                store.schema,
                shard_count=store.shard_count,
                journal_limit=store.journal_limit,
            )
            self.last_report = report
        self._store = store
        # (Re-)snapshot before opening the WAL: collapses any replayed
        # tail, and guarantees a recovery point exists from frame one.
        write_snapshot(self.data_dir, store)
        prune_snapshots(self.data_dir)
        self.snapshot_count += 1
        # The snapshot supersedes every existing segment; purge them now
        # rather than at the next rotation.  Frames discarded by recovery
        # (stranded past a sequence gap) share seqs with the writes about
        # to happen — left on disk, they could shadow the acked frames in
        # a second recovery.
        purge_segments(os.path.join(self.data_dir, WAL_SUBDIR))
        self._wal = WriteAheadLog(
            os.path.join(self.data_dir, WAL_SUBDIR),
            store.shard_count,
            store.version,
            fsync_policy=self.fsync_policy,
            fsync_interval=self.fsync_interval,
        )
        self._last_snapshot_at = self._clock()
        store.set_mutation_sink(self.append)
        return store, report

    def _has_persisted_state(self) -> bool:
        wal_dir = os.path.join(self.data_dir, WAL_SUBDIR)
        names = sorted(os.listdir(self.data_dir))
        if os.path.isdir(wal_dir):
            names.extend(sorted(os.listdir(wal_dir)))
        return any(
            name.endswith(".ndjson") and not name.endswith(".tmp")
            for name in names
        )

    def close(self) -> None:
        """Final flush + fsync, then release the segment files."""
        if self._wal is not None:
            self._wal.close()
        if self._store is not None:
            self._store.set_mutation_sink(None)
            self._store = None

    # ------------------------------------------------------------------
    # Write path (all under the service's store write lock)
    # ------------------------------------------------------------------
    def append(self, record: MutationRecord) -> None:
        """Buffer one record's frame, routed by shard (a mutation sink)."""
        self._wal.append(self._store.shard_of(record.oid), record.as_dict())

    def commit(self) -> Dict[str, Any]:
        """Flush the batch; fsync per policy; snapshot when triggered.

        Called once per service mutation batch, under the write lock, so
        the snapshot (when taken) is consistent.  Returns the durability
        metadata attached to the batch's :class:`MutationResult`.
        """
        if os.getpid() != self._pid or self._wal is None:
            return {"fsynced": False, "pending_fsync": 0}
        result = self._wal.commit()
        if self._snapshot_due():
            self.snapshot()
            result["fsynced"] = True
        result["wal_frames"] = self._wal.appended_frames
        result["snapshot_version"] = self._wal.base_version
        return result

    def _snapshot_due(self) -> bool:
        if self._wal.appended_frames >= self.snapshot_frames:
            return True
        return (
            self.snapshot_age > 0
            and self._wal.appended_frames > 0
            and self._clock() - self._last_snapshot_at >= self.snapshot_age
        )

    def snapshot(self) -> str:
        """Snapshot now and rotate the WAL; returns the snapshot path.

        Callers must hold the store's write lock (commit's caller does).
        """
        if os.getpid() != self._pid:
            raise RuntimeError("snapshot() called from a forked process")
        self._wal.flush()
        path = write_snapshot(self.data_dir, self._store)
        self._wal.rotate(self._store.version)
        prune_snapshots(self.data_dir)
        self.snapshot_count += 1
        self._last_snapshot_at = self._clock()
        return path

    def flush(self) -> None:
        """Drain: force everything buffered onto stable storage."""
        if self._wal is not None:
            self._wal.flush()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        wal = self._wal
        return {
            "data_dir": self.data_dir,
            "fsync_policy": self.fsync_policy,
            "fsync_interval": self.fsync_interval,
            "snapshot_frames": self.snapshot_frames,
            "snapshot_age": self.snapshot_age,
            "snapshot_count": self.snapshot_count,
            "snapshot_version": wal.base_version if wal else None,
            "wal_frames": wal.appended_frames if wal else 0,
            "wal_commits": wal.committed_batches if wal else 0,
            "wal_fsyncs": wal.fsync_count if wal else 0,
            "recovered": self.last_report is not None,
        }
