"""The primary's replication feed: initial sync + live WAL-frame tail.

One :class:`ReplicationFeed` fronts one
:class:`~repro.service.OptimizationService` on the primary and registers
itself there.  The service's commit path hands it every applied
:class:`~repro.engine.storage.MutationRecord` (:meth:`~ReplicationFeed.stage`,
after the WAL append) and releases them with
:meth:`~ReplicationFeed.publish` once the WAL commit has returned — so no
replica is ever handed a frame the primary could still lose.  A published
record is encoded exactly once — as the same checksummed NDJSON frame
format the WAL writes to disk (:mod:`repro.durability.frames`) — and
fanned out to every subscribed replica.

Wire protocol (one checksummed frame per line, both directions)::

    replica -> primary   {"kind": "hello", "version": V | null, "epoch": E}
                         {"kind": "ack", "version": V}
    primary -> replica   {"kind": "sync", "mode": "snapshot" | "tail",
                          "epoch": E, "version": V, "shard_count": N}
                         snapshot mode: a snapshot header frame, row
                         frames and an end trailer (the exact
                         :mod:`repro.durability.snapshot` shapes)
                         {"kind": "record", ...MutationRecord...}

A hello with a ``version`` the primary's bounded journal can still
bridge (and a matching feed epoch) gets a ``tail`` sync: the bridging
records, then the live stream.  Anything else — first contact, a
journal gap, an epoch from a previous primary process — gets a full
``snapshot`` sync.  The consistency point is taken under the service's
read lock (readers exclude writers), and the subscriber is registered
*inside* that capture, so no record can fall between the sync payload
and the live tail.

Slow consumers are bounded: each replica's queue is a
:class:`~repro.subscriptions.queue.PushChannel`, so one whose backlog
exceeds ``queue_limit`` is disconnected rather than buffered without
limit (or silently skipped — ``apply_journal`` does not detect sequence
gaps).  The dropped replica reconnects and resyncs through the same
hello path.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..durability.frames import FrameError, decode_frame, encode_frame
from ..subscriptions.queue import PushChannel

__all__ = ["ReplicationFeed"]

#: Pending frames per subscriber before it is disconnected for lagging.
DEFAULT_QUEUE_LIMIT = 10_000


class _Subscriber:
    """One connected replica: its bounded channel plus ack bookkeeping."""

    def __init__(self, peer: str, loop: asyncio.AbstractEventLoop, limit: int, writer):
        self.peer = peer
        self.acked_version = 0
        self.synced_version = 0
        #: Set once the sync payload has shipped: live frames queue behind it.
        self.synced = asyncio.Event()
        #: Set when the replica lagged past the bound (or the feed stopped):
        #: the connection closes and the replica resyncs via hello.
        self.dropped = asyncio.Event()
        self._writer = writer
        self.channel = PushChannel(
            loop, self._deliver, limit=limit, on_overflow=self._drop
        )

    async def _deliver(self, line: str) -> None:
        await self.synced.wait()
        if not self.channel.closed:
            self._writer.write(line.encode("utf-8"))
            await self._writer.drain()

    async def _drop(self) -> None:
        self.dropped.set()


class ReplicationFeed:
    """Streams the primary's mutation records to subscribed replicas."""

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        #: Feed identity; a replica tailing a different epoch (a restarted
        #: primary whose journal seqs restarted) must full-resync.
        self.epoch = os.urandom(8).hex()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._lock = threading.Lock()
        self._subscribers: List[_Subscriber] = []
        # Records handed over by the service's commit path and not yet
        # published; only ever touched under the service's write lock.
        self._staged: List[Any] = []
        self._frames_streamed = 0
        self._syncs = 0
        self._disconnects = 0
        service.attach_replication(self)

    async def start(self) -> Tuple[str, int]:
        """Bind the feed listener; returns ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port, limit=1 << 26
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Close the listener and drop every subscriber."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber.channel.close()
            subscriber.dropped.set()

    # ------------------------------------------------------------------
    # The commit path's two calls (both under the service's write lock).

    def stage(self, record) -> None:
        """Hold one applied record back until :meth:`publish`."""
        self._staged.append(record)

    def publish(self) -> None:
        """Fan the staged records out to every replica, in order.

        The service calls this after the WAL commit of the same batch
        returned, so a frame is on local disk (flushed, and fsynced per
        policy) before any replica can see it.  May run on a gateway
        worker thread: encode each frame once, queue it per subscriber,
        wake the loop.
        """
        staged, self._staged = self._staged, []
        with self._lock:
            subscribers = list(self._subscribers)
            self._frames_streamed += len(subscribers) * len(staged)
        if not subscribers:
            return
        for record in staged:
            line = encode_frame({"kind": "record", **record.as_dict()})
            for subscriber in subscribers:
                subscriber.channel.push(line)

    # ------------------------------------------------------------------
    # Introspection.

    def describe(self) -> Dict[str, Any]:
        """The feed endpoint a would-be replica should connect to."""
        store = self.service.store
        return {
            "host": self.host,
            "port": self.port,
            "epoch": self.epoch,
            "version": getattr(store, "version", 0),
            "shard_count": getattr(store, "shard_count", 1),
        }

    def status(self) -> Dict[str, Any]:
        """Epoch, per-replica acked versions, and stream counters."""
        store = self.service.store
        version = getattr(store, "version", 0)
        with self._lock:
            replicas = [
                {
                    "peer": subscriber.peer,
                    "acked_version": subscriber.acked_version,
                    "lag": max(0, version - subscriber.acked_version),
                }
                for subscriber in self._subscribers
            ]
            counters = {
                "frames_streamed": self._frames_streamed,
                "syncs": self._syncs,
                "disconnects": self._disconnects,
            }
        return {
            "epoch": self.epoch,
            "feed_host": self.host,
            "feed_port": self.port,
            "replicas": replicas,
            **counters,
        }

    # ------------------------------------------------------------------
    # Per-connection handling.

    def _register(self, subscriber: _Subscriber) -> None:
        with self._lock:
            self._subscribers.append(subscriber)

    def _unregister(self, subscriber: _Subscriber) -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)
                self._disconnects += 1

    async def _on_connect(self, reader, writer) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "unknown"
        subscriber = _Subscriber(
            peer, asyncio.get_running_loop(), self.queue_limit, writer
        )
        try:
            if await self._sync(reader, writer, subscriber):
                await self._serve(subscriber, reader)
        except (ConnectionError, OSError, FrameError, asyncio.IncompleteReadError):
            pass
        finally:
            # Also when the sync itself failed after registering: close
            # the channel, then release a delivery parked behind the sync.
            subscriber.channel.close()
            subscriber.synced.set()
            self._unregister(subscriber)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _sync(self, reader, writer, subscriber: _Subscriber) -> bool:
        """Handshake: read the hello, register, ship the sync payload."""
        line = await reader.readline()
        if not line:
            return False
        hello = decode_frame(line.decode("utf-8"))
        if hello.get("kind") != "hello":
            return False
        version = hello.get("version")
        epoch = hello.get("epoch") or ""
        tail_from = (
            version
            if isinstance(version, int)
            and not isinstance(version, bool)
            and epoch == self.epoch
            else None
        )
        # Capture the sync point and register the subscriber atomically
        # with respect to writers (the capture holds the service's read
        # lock; stage and publish run under the write lock).
        capture = await asyncio.get_running_loop().run_in_executor(
            None,
            self.service.replication_capture,
            tail_from,
            lambda: self._register(subscriber),
        )
        with self._lock:
            self._syncs += 1
        subscriber.synced_version = capture["version"]
        subscriber.acked_version = 0
        writer.write(
            encode_frame(
                {
                    "kind": "sync",
                    "mode": capture["mode"],
                    "epoch": self.epoch,
                    "version": capture["version"],
                    "shard_count": capture["shard_count"],
                }
            ).encode("utf-8")
        )
        if capture["mode"] == "snapshot":
            header_frame = {"kind": "snapshot", "format": capture["format"]}
            header_frame.update(capture["header"])
            writer.write(encode_frame(header_frame).encode("utf-8"))
            rows = 0
            for class_name, oid, values in capture["rows"]:
                writer.write(
                    encode_frame(
                        {
                            "kind": "row",
                            "class": class_name,
                            "oid": oid,
                            "values": values,
                        }
                    ).encode("utf-8")
                )
                rows += 1
                if rows % 1000 == 0:
                    await writer.drain()
            writer.write(encode_frame({"kind": "end", "rows": rows}).encode("utf-8"))
        else:
            for payload in capture["records"]:
                writer.write(
                    encode_frame({"kind": "record", **payload}).encode("utf-8")
                )
        await writer.drain()
        subscriber.synced.set()
        return True

    async def _serve(self, subscriber: _Subscriber, reader) -> None:
        """Read acks while the channel streams; ends on EOF or a drop."""
        dropped = asyncio.ensure_future(subscriber.dropped.wait())
        acks = asyncio.ensure_future(self._read_acks(subscriber, reader))
        try:
            await asyncio.wait([dropped, acks], return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (dropped, acks):
                task.cancel()
            await asyncio.gather(dropped, acks, return_exceptions=True)

    async def _read_acks(self, subscriber: _Subscriber, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            try:
                frame = decode_frame(line.decode("utf-8"))
            except FrameError:
                return
            if frame.get("kind") != "ack":
                continue
            version = frame.get("version")
            if isinstance(version, int) and not isinstance(version, bool):
                subscriber.acked_version = max(subscriber.acked_version, version)
