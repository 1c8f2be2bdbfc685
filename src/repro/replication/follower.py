"""The replica's side of the feed: bootstrap, live apply, reconnect.

A :class:`ReplicaFollower` connects to a primary's
:class:`~repro.replication.feed.ReplicationFeed`, rebuilds the exact
primary store from the snapshot stream
(:meth:`~repro.engine.storage.ShardedObjectStore.restore` — rows,
per-shard version counters and OID allocators all byte-identical), and
then applies every live ``record`` frame through
:meth:`OptimizationService.apply_replication` — the same
``apply_journal`` path forked parallel workers use, followed by the
primary's own commit path, so shard-granular cache invalidation,
dynamic-rule re-derivation and the replica's standing views behave
exactly as they do for local writes.  Each applied frame is acked back with the
replica's new store version, which is what the primary reports as lag
and the router polls for read-your-writes.

On a dropped connection the follower reconnects with bounded retries,
sending its current version and the feed epoch: the primary answers
with a ``tail`` sync when its journal still bridges the gap, or a full
``snapshot`` sync (applied via
:meth:`OptimizationService.adopt_replica_store`) when it does not —
e.g. after the replica lagged past the journal bound or the primary
restarted under a new epoch.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from ..durability.frames import FrameError, decode_frame, encode_frame
from ..durability.snapshot import SNAPSHOT_FORMAT
from ..engine.storage import MutationRecord, ShardedObjectStore, StorageError

__all__ = ["ReplicaFollower", "ReplicationError"]


class ReplicationError(Exception):
    """The feed violated the replication wire protocol."""


class ReplicaFollower:
    """Maintains one replica store from a primary's replication feed."""

    def __init__(
        self,
        schema,
        host: str,
        port: int,
        *,
        journal_limit: Optional[int] = None,
        reconnect_attempts: int = 30,
        reconnect_delay: float = 0.2,
    ):
        self.schema = schema
        self.primary = (host, port)
        self.journal_limit = journal_limit
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_delay = reconnect_delay
        self.epoch = ""
        self.connected = False
        #: Sync mode of the most recent handshake ("snapshot" or "tail").
        self.last_sync_mode: Optional[str] = None
        self.resyncs = 0
        self.records_applied = 0
        self.service = None
        self._store: Optional[ShardedObjectStore] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._task: Optional[asyncio.Task] = None
        self._stopped = False

    @property
    def applied_version(self) -> int:
        """The replica store's current (acked) version."""
        return self._store.version if self._store is not None else 0

    # ------------------------------------------------------------------
    # Bootstrap.

    async def bootstrap(self) -> ShardedObjectStore:
        """Connect and rebuild the primary's store; returns the store.

        Called once before the replica's service exists; a first-contact
        hello (``version: null``) always gets a full snapshot sync.
        """
        reader, writer, sync = await self._handshake(None, "")
        if sync.get("mode") != "snapshot":
            writer.close()
            raise ReplicationError(
                f"expected a snapshot sync on first contact, got {sync.get('mode')!r}"
            )
        store = await self._read_snapshot(reader, sync)
        self.epoch = sync.get("epoch") or ""
        self.last_sync_mode = "snapshot"
        self._reader, self._writer = reader, writer
        self._store = store
        self.connected = True
        return store

    def attach(self, service) -> None:
        """Attach the replica's service; live frames apply through it."""
        self.service = service

    # ------------------------------------------------------------------
    # Live loop.

    def start(self) -> "asyncio.Task":
        """Run :meth:`run` as a task on the current loop."""
        self._task = asyncio.ensure_future(self.run())
        return self._task

    async def run(self) -> None:
        """Apply the live stream; reconnect (bounded) on any drop.

        Raises :class:`ReplicationError` once reconnecting is exhausted,
        so a supervising ``serve`` process exits loudly rather than
        serving unboundedly stale reads.
        """
        if self.service is None or self._store is None:
            raise ReplicationError("bootstrap() and attach() must run first")
        await self._ack()
        while not self._stopped:
            try:
                await self._apply_stream()
            except asyncio.CancelledError:
                raise
            except (
                ConnectionError,
                OSError,
                FrameError,
                ReplicationError,
                asyncio.IncompleteReadError,
            ):
                pass
            self.connected = False
            if self._stopped:
                return
            if not await self._reconnect():
                raise ReplicationError(
                    f"lost the primary feed at {self.primary[0]}:{self.primary[1]} "
                    f"and reconnecting failed after {self.reconnect_attempts} attempts"
                )

    async def stop(self) -> None:
        """Stop the live loop and close the feed connection."""
        self._stopped = True
        self.connected = False
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, ReplicationError):
                pass
            self._task = None
        await self._close_connection()

    def status(self) -> Dict[str, Any]:
        """Primary endpoint, connection state and applied version."""
        return {
            "primary": f"{self.primary[0]}:{self.primary[1]}",
            "connected": self.connected,
            "epoch": self.epoch,
            "applied_version": self.applied_version,
            "last_sync_mode": self.last_sync_mode,
            "resyncs": self.resyncs,
            "records_applied": self.records_applied,
        }

    # ------------------------------------------------------------------
    # Wire plumbing.

    async def _handshake(self, version: Optional[int], epoch: str):
        reader, writer = await asyncio.open_connection(
            self.primary[0], self.primary[1], limit=1 << 26
        )
        try:
            writer.write(
                encode_frame(
                    {"kind": "hello", "version": version, "epoch": epoch}
                ).encode("utf-8")
            )
            await writer.drain()
            sync = await self._read_frame(reader)
            if sync.get("kind") != "sync":
                raise ReplicationError(
                    f"expected a sync frame, got {sync.get('kind')!r}"
                )
        except BaseException:
            writer.close()
            raise
        return reader, writer, sync

    async def _read_frame(self, reader) -> Dict[str, Any]:
        line = await reader.readline()
        if not line:
            raise ReplicationError("feed connection closed")
        return decode_frame(line.decode("utf-8"))

    async def _read_snapshot(self, reader, sync) -> ShardedObjectStore:
        """Consume a snapshot stream into a fresh store."""
        header = await self._read_frame(reader)
        if header.get("kind") != "snapshot":
            raise ReplicationError(
                f"expected a snapshot header, got {header.get('kind')!r}"
            )
        if header.get("format") != SNAPSHOT_FORMAT:
            raise ReplicationError(
                f"unsupported snapshot format {header.get('format')!r}"
            )
        rows = []
        while True:
            frame = await self._read_frame(reader)
            kind = frame.get("kind")
            if kind == "end":
                if frame.get("rows") != len(rows):
                    raise ReplicationError(
                        f"snapshot trailer claims {frame.get('rows')!r} rows, "
                        f"received {len(rows)}"
                    )
                break
            if kind != "row":
                raise ReplicationError(f"unexpected {kind!r} frame in snapshot")
            class_name = frame.get("class")
            values = frame.get("values")
            if not isinstance(class_name, str) or not isinstance(values, dict):
                raise ReplicationError("malformed snapshot row frame")
            rows.append((class_name, frame.get("oid"), values))
        kwargs = {} if self.journal_limit is None else {
            "journal_limit": self.journal_limit
        }
        try:
            store = ShardedObjectStore.restore(self.schema, header, rows, **kwargs)
        except (StorageError, TypeError, ValueError) as exc:
            raise ReplicationError(f"snapshot restore failed: {exc}") from None
        if store.version != sync.get("version"):
            raise ReplicationError(
                f"snapshot version {store.version} disagrees with sync "
                f"frame {sync.get('version')!r}"
            )
        return store

    async def _apply_stream(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopped:
            frame = await self._read_frame(self._reader)
            if frame.get("kind") != "record":
                continue
            payload = {key: value for key, value in frame.items() if key != "kind"}
            try:
                record = MutationRecord.from_dict(payload)
            except StorageError as exc:
                raise ReplicationError(f"malformed record frame: {exc}") from None
            applied = await loop.run_in_executor(
                None, self.service.apply_replication, [record]
            )
            self.records_applied += applied
            await self._ack()

    async def _ack(self) -> None:
        if self._writer is None:
            return
        self._writer.write(
            encode_frame(
                {"kind": "ack", "version": self.applied_version}
            ).encode("utf-8")
        )
        await self._writer.drain()

    async def _close_connection(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _reconnect(self) -> bool:
        """Re-handshake with the current version; tail or full resync."""
        await self._close_connection()
        loop = asyncio.get_running_loop()
        delay = self.reconnect_delay
        for _ in range(self.reconnect_attempts):
            if self._stopped:
                return True
            try:
                reader, writer, sync = await self._handshake(
                    self._store.version, self.epoch
                )
            except (
                ConnectionError,
                OSError,
                FrameError,
                ReplicationError,
                asyncio.IncompleteReadError,
            ):
                await asyncio.sleep(delay)
                delay = min(delay * 2.0, 2.0)
                continue
            mode = sync.get("mode")
            try:
                if mode == "snapshot":
                    store = await self._read_snapshot(reader, sync)
                    await loop.run_in_executor(
                        None, self.service.adopt_replica_store, store
                    )
                    self._store = store
                    self.resyncs += 1
                elif mode != "tail":
                    raise ReplicationError(f"unknown sync mode {mode!r}")
            except (
                ConnectionError,
                OSError,
                FrameError,
                ReplicationError,
                asyncio.IncompleteReadError,
            ):
                writer.close()
                await asyncio.sleep(delay)
                delay = min(delay * 2.0, 2.0)
                continue
            self.epoch = sync.get("epoch") or ""
            self.last_sync_mode = mode
            self._reader, self._writer = reader, writer
            self.connected = True
            await self._ack()
            return True
        return False
