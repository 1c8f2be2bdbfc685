"""Async client for the query gateway.

:class:`AsyncGatewayClient` speaks the line-delimited JSON protocol in two
transports behind one API:

* **TCP** (:meth:`AsyncGatewayClient.connect`) — a real socket to a served
  gateway.  Requests are pipelined: any number of coroutines may issue
  requests on one connection concurrently; a background reader task
  demultiplexes responses back to their callers by correlation id.
* **in-process** (:meth:`AsyncGatewayClient.in_process`) — no socket; each
  request is dispatched straight into a :class:`QueryGateway` living in
  the same event loop.  The full parse → admission → single-flight path
  still runs, which is what the gateway's tests and the dedup benchmark
  drive.

Successful responses return the ``result`` payload dict; error responses
raise :class:`~repro.server.errors.GatewayRequestError` carrying the wire
code (``protocol_error``, ``overloaded``, ``timeout``, ...).

TCP clients opened with ``retry_reads=N`` additionally survive dropped
connections for **idempotent read ops** (those
:data:`~repro.server.protocol.OPS` declares ``retry``): a transport
failure triggers a bounded reconnect-and-retry instead of an error,
which is how the query router rides out a replica restart.
Mutations and rule changes are never retried — the gateway's
at-least-once timeout semantics already make blind write retries unsafe.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, List, Optional

from .errors import GatewayError, GatewayRequestError
from .protocol import decode_reply, encode_request, op_spec


class AsyncGatewayClient:
    """One logical client of the gateway (TCP or in-process).

    Construct via :meth:`connect` or :meth:`in_process`, then call the RPC
    helpers; every helper is safe to call from many coroutines at once.
    """

    def __init__(
        self,
        *,
        reader: Optional[asyncio.StreamReader] = None,
        writer: Optional[asyncio.StreamWriter] = None,
        gateway=None,
        client_id: str = "client",
        host: Optional[str] = None,
        port: Optional[int] = None,
        retry_reads: int = 0,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._gateway = gateway
        self.client_id = client_id
        self._host = host
        self._port = port
        self._retry_reads = retry_reads
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        # Server-initiated push frames (subscriptions), demultiplexed by
        # subscription id into per-subscription queues.  Queues are
        # created on first touch from either side, so a diff frame that
        # races ahead of the subscribe() caller is never dropped.
        self._pushes: Dict[str, asyncio.Queue] = {}
        self.push_frames = 0
        self._reader_task: Optional[asyncio.Task] = None
        self._closed = False
        # Connection generation: bumped on every reconnect so a dying old
        # read loop can never fail futures registered on the new
        # connection, and so concurrent retries reconnect at most once.
        self._conn_generation = 1
        self._reconnect_lock: Optional[asyncio.Lock] = None
        if reader is not None:
            self._reader_task = asyncio.ensure_future(
                self._read_loop(reader, self._conn_generation)
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    async def connect(
        cls, host: str, port: int, client_id: str = "client", retry_reads: int = 0
    ) -> "AsyncGatewayClient":
        """Open a TCP connection to a served gateway.

        ``client_id`` is a local label only — it is not transmitted.  On
        the TCP path the gateway identifies clients by peer address, so
        admission fairness and pending caps are **per connection**; only
        the in-process path (:meth:`in_process`) honors the id directly.

        ``retry_reads`` bounds reconnect-and-retry attempts for
        idempotent read ops after a transport failure (``0`` preserves
        the fail-fast behaviour).
        """
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 26)
        return cls(
            reader=reader,
            writer=writer,
            client_id=client_id,
            host=host,
            port=port,
            retry_reads=retry_reads,
        )

    @classmethod
    def in_process(cls, gateway, client_id: str = "in-process") -> "AsyncGatewayClient":
        """A client that dispatches straight into ``gateway`` (no socket)."""
        return cls(gateway=gateway, client_id=client_id)

    # ------------------------------------------------------------------
    # RPC helpers
    # ------------------------------------------------------------------
    async def optimize(self, query: str, **options: Any) -> Dict[str, Any]:
        """Optimize one query text; returns the optimization payload."""
        return await self.request({"op": "optimize", "query": query, "options": options})

    async def execute(self, query: str, **options: Any) -> Dict[str, Any]:
        """Optimize (by default) and execute one query text."""
        return await self.request({"op": "execute", "query": query, "options": options})

    async def execute_batch(
        self, queries: List[str], **options: Any
    ) -> Dict[str, Any]:
        """Execute a batch of query texts in one round trip."""
        return await self.request(
            {"op": "execute_batch", "queries": list(queries), "options": options}
        )

    async def stats(self) -> Dict[str, Any]:
        """One immutable snapshot of service + gateway counters."""
        return await self.request({"op": "stats"})

    async def insert(self, class_name: str, values: Dict[str, Any]) -> Dict[str, Any]:
        """Insert one instance; returns the mutation payload (new OID included)."""
        return await self.request(
            {"op": "insert", "class": class_name, "values": values}
        )

    async def insert_many(
        self, class_name: str, rows: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Insert a batch of instances in one round trip."""
        return await self.request(
            {"op": "insert_many", "class": class_name, "rows": list(rows)}
        )

    async def update(
        self, class_name: str, oid: int, values: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Update attribute values of one stored instance."""
        return await self.request(
            {"op": "update", "class": class_name, "oid": oid, "values": values}
        )

    async def delete(self, class_name: str, oid: int) -> Dict[str, Any]:
        """Delete one stored instance."""
        return await self.request({"op": "delete", "class": class_name, "oid": oid})

    async def add_rule(self, rule: Dict[str, Any]) -> Dict[str, Any]:
        """Declare a semantic constraint (see :func:`protocol.parse_rule`)."""
        return await self.request({"op": "rules", "action": "add", "rule": rule})

    async def remove_rule(self, name: str) -> Dict[str, Any]:
        """Remove a declared constraint by name."""
        return await self.request({"op": "rules", "action": "remove", "name": name})

    async def subscribe(self, query: str, **options: Any) -> Dict[str, Any]:
        """Open a live view of ``query``; returns the initial snapshot.

        The payload carries the ``subscription`` id and the initial
        ``rows``; from then on the server pushes diff frames, consumed
        with :meth:`next_push` and folded client-side with
        :func:`repro.subscriptions.apply_changes`.
        """
        return await self.request(
            {"op": "subscribe", "query": query, "options": options}
        )

    async def unsubscribe(self, subscription: str) -> Dict[str, Any]:
        """Drop a live view previously opened with :meth:`subscribe`."""
        return await self.request(
            {"op": "unsubscribe", "subscription": subscription}
        )

    async def next_push(
        self, subscription: str, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Await the next push frame of one subscription (FIFO order)."""
        queue = self._pushes.setdefault(subscription, asyncio.Queue())
        if timeout is None:
            return await queue.get()
        return await asyncio.wait_for(queue.get(), timeout)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    async def request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request frame and await its ``result`` payload.

        On the TCP path, a transport failure (dropped connection, reset)
        is retried up to ``retry_reads`` times for idempotent read ops,
        reconnecting between attempts.  Error *responses* — the gateway
        answered — always raise immediately, and non-idempotent frames
        (mutations, rules) are never resent.
        """
        if self._closed:
            raise GatewayError("client is closed")
        spec = op_spec(frame.get("op"))
        retries = (
            self._retry_reads
            if self._writer is not None
            and self._host is not None
            and spec is not None
            and spec.retry
            else 0
        )
        delay = 0.05
        for attempt in range(retries + 1):
            generation = self._conn_generation
            try:
                return await self._request_once(frame)
            except GatewayRequestError:
                raise
            except (GatewayError, ConnectionError, OSError):
                if self._closed or attempt >= retries:
                    raise
                # Give a restarting backend a moment, then reconnect (or
                # join a reconnect another coroutine already performed).
                await asyncio.sleep(delay)
                delay = min(delay * 2.0, 0.5)
                try:
                    await self._reconnect(generation)
                except (ConnectionError, OSError):
                    continue  # next attempt retries the reconnect
        raise GatewayError("retry budget exhausted")  # pragma: no cover

    async def _request_once(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        # A connection whose read loop has exited can never answer: a
        # write might land in the dead transport's buffer without an
        # error and the response future would hang forever.  Fail fast
        # instead (retry-eligible callers reconnect and re-issue).
        if self._reader_task is not None and self._reader_task.done():
            raise GatewayError("connection closed")
        frame = dict(frame, id=next(self._ids))
        if self._gateway is not None:
            response = await self._gateway.dispatch(
                frame, self.client_id, subscriber=self
            )
        else:
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._pending[frame["id"]] = future
            try:
                self._writer.write(encode_request(frame))
                await self._writer.drain()
                response = await future
            finally:
                self._pending.pop(frame["id"], None)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise GatewayRequestError(
                error.get("code", "internal"), error.get("message", "unknown error")
            )
        return response["result"]

    async def _reconnect(self, observed_generation: int) -> None:
        """Replace the dead connection (at most once per generation)."""
        if self._reconnect_lock is None:
            self._reconnect_lock = asyncio.Lock()
        async with self._reconnect_lock:
            if self._closed:
                raise GatewayError("client is closed")
            if self._conn_generation != observed_generation:
                return  # another coroutine already reconnected
            reader, writer = await asyncio.open_connection(
                self._host, self._port, limit=1 << 26
            )
            # Bump the generation *before* touching the old connection so
            # its read loop's cleanup (below) recognizes itself as stale.
            self._conn_generation += 1
            old_task, old_writer = self._reader_task, self._writer
            self._reader, self._writer = reader, writer
            self._reader_task = asyncio.ensure_future(
                self._read_loop(reader, self._conn_generation)
            )
            # Requests still parked on the dead connection can never be
            # answered; fail them so retry-eligible callers re-issue on
            # the new connection.
            for future in list(self._pending.values()):
                if not future.done():
                    future.set_exception(
                        GatewayError("connection reset during reconnect")
                    )
            if old_task is not None:
                old_task.cancel()
                try:
                    await old_task
                except asyncio.CancelledError:
                    pass
            if old_writer is not None:
                old_writer.close()

    async def _read_loop(
        self, reader: asyncio.StreamReader, generation: int
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    response = decode_reply(line)
                except GatewayError:
                    continue  # server never sends malformed frames; skip
                if "push" in response:
                    # Server-initiated frames carry no correlation id;
                    # route them by subscription before id demux.
                    self._route_push(response)
                    continue
                future = self._pending.get(response.get("id"))
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            # Only the *current* connection's loop may fail the pending
            # map: a stale loop dying mid-reconnect must not kill futures
            # already registered against the replacement connection.
            if generation == self._conn_generation:
                for future in self._pending.values():
                    if not future.done():
                        future.set_exception(
                            GatewayError("connection closed before response")
                        )

    def _route_push(self, frame: Dict[str, Any]) -> None:
        subscription = frame.get("subscription")
        if not isinstance(subscription, str):
            return
        self.push_frames += 1
        self._pushes.setdefault(subscription, asyncio.Queue()).put_nowait(frame)

    async def push_frame(self, payload: Dict[str, Any]) -> None:
        """Receive one push frame (the in-process gateway calls this)."""
        self._route_push(payload)

    async def close(self) -> None:
        """Close the connection (no-op beyond bookkeeping when in-process)."""
        if self._closed:
            return
        self._closed = True
        if self._gateway is not None:
            # The in-process path has no session close to free standing
            # views; release them here like a TCP disconnect would.
            release = getattr(self._gateway, "release_subscriber", None)
            if release is not None:
                release(self)
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def __aenter__(self) -> "AsyncGatewayClient":
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()
