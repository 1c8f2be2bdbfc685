"""The asyncio query gateway.

:class:`QueryGateway` fronts one :class:`~repro.service.OptimizationService`
for many concurrent clients: an asyncio TCP server speaks the
line-delimited JSON protocol (:mod:`repro.server.protocol`), admission
control (:mod:`repro.server.admission`) bounds and fairly shares the
in-flight request set, and a bounded worker-thread pool runs the work
that may wait — a cold optimize, a write, anything that needs the store
lock while a writer holds or wants it — so the event loop never blocks on
a lock or a computation.

**Dispatch.**  Every op of :data:`~repro.server.protocol.OPS` is served
by this class's ``_serve_<op>`` method; the table's facts decide the
rest — an ``inline`` op is answered on the event loop without admission,
a ``writes`` op is refused on a read-only replica, and a ``warm`` op
(``optimize``, ``execute``) takes a free admission slot without queueing
when one is there.  Its handler then asks the service for the answer
*now* (:meth:`~repro.service.OptimizationService.serve_warm`): when the
optimization is already cached and the read lock is free, the read runs
on the event loop — pure-Python work holds the interpreter lock whichever
thread runs it, so the thread hop bought no parallelism and cost more than
the query.  Otherwise the handler goes on to single-flight and the pool,
exactly as a queued request does.  An ``inline`` or warm answer never
waits, so the ``timeout`` option bounds only queued and pooled work.

**Single-flight deduplication.**  ``optimize`` and ``execute`` requests that
reach the pool are deduplicated in flight by structural query identity
(:func:`~repro.query.equivalence.equivalence_key`) plus their options, via
the service's shared :class:`~repro.caching.SingleFlightMap`: while a
request is being computed, every identical concurrent request waits on the
same future and receives the same payload (marked ``"coalesced": true``),
so a thundering herd of N identical cold queries costs one optimization
and one execution (a warm herd is answered on the loop and starts no
flight).  Flight keys embed the repository generation and the store
version, so a constraint change or data mutation can never serve a stale
payload.  The shared work is resolved by the worker thread itself (handed
back to the event loop), not by the request coroutine that started it —
which is why a timed-out or disconnected *waiter* never cancels work other
clients are waiting on, and why a completed flight always retires its map
entry even if every waiter gave up.

**Lifecycle.**  :meth:`start` binds the listener, :meth:`serve_forever`
blocks, and :meth:`stop` gracefully drains: new requests are rejected with
the ``draining`` code while admitted and queued work runs to completion
and responses are flushed before connections close.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from ..engine.storage import StorageError
from ..query.equivalence import equivalence_key
from ..subscriptions.queue import DEFAULT_QUEUE_LIMIT, PushChannel
from .admission import AdmissionController
from .errors import (
    BackupUnavailable,
    GatewayDraining,
    GatewayError,
    MutationError,
    ProtocolError,
    ReadOnlyError,
    ReplicationUnavailable,
    RequestTimeout,
    SubscriptionLimit,
    SubscriptionUnknown,
)
from .protocol import (
    OPS,
    PROTOCOL_VERSION,
    Request,
    batch_payload,
    decode_frame,
    error_response,
    execution_payload,
    mutation_payload,
    ok_response,
    optimization_payload,
    parse_request,
)


def _consume(future: "asyncio.Future") -> None:
    """Swallow an abandoned future's outcome so it never warns."""
    if not future.cancelled():
        future.exception()


def _work_options(request: Request) -> Dict[str, Any]:
    """The request's options minus ``timeout``, which bounds only the wait."""
    return {name: value for name, value in request.options.items() if name != "timeout"}


class QueryGateway:
    """Serve one :class:`OptimizationService` to many concurrent clients.

    Parameters
    ----------
    service:
        The (already configured) optimization service.  Execution RPCs
        require it to have an attached object store.
    host, port:
        Listen address; port ``0`` binds an ephemeral port (reported by
        :meth:`start` and :attr:`address`).
    worker_threads:
        Width of the thread pool the optimizer/engine work runs on when it
        cannot be answered on the event loop (cold optimizes, writes, reads
        that meet a writer).  This bounds *pooled compute* concurrency;
        admission bounds *request* concurrency (coalesced waiters hold a
        request slot but no thread).
    max_in_flight, max_waiting, max_pending_per_client:
        Admission-control limits (see :class:`AdmissionController`).
    request_timeout:
        Default per-request budget in seconds, covering admission wait and
        computation.  Requests may lower (never raise) it with the
        ``timeout`` option.
    read_only, replication, follower:
        Replication wiring (:mod:`repro.replication`): ``read_only``
        rejects mutation and ``rules`` frames with the ``read_only``
        code, ``replication`` is the primary's feed (answers
        ``subscribe_wal`` and reports per-replica lag), ``follower`` is
        the replica's follower (reports sync progress).

    Examples
    --------
    An in-process round trip (no socket; :meth:`start` would add TCP):

    >>> import asyncio
    >>> from repro.constraints import ConstraintRepository, build_example_constraints
    >>> from repro.schema import build_example_schema
    >>> from repro.server.client import AsyncGatewayClient
    >>> from repro.service import OptimizationService
    >>> schema = build_example_schema()
    >>> repository = ConstraintRepository(schema)
    >>> repository.add_all(build_example_constraints())
    >>> async def roundtrip():
    ...     service = OptimizationService(schema, repository=repository)
    ...     gateway = QueryGateway(service)
    ...     client = AsyncGatewayClient.in_process(gateway)
    ...     payload = await client.optimize(
    ...         '(SELECT {cargo.desc} { } {vehicle.desc = "refrigerated truck"} '
    ...         '{collects} {cargo, vehicle})')
    ...     await gateway.stop()
    ...     return payload["source"]
    >>> asyncio.run(roundtrip())
    'computed'
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        worker_threads: int = 4,
        max_in_flight: int = 64,
        max_waiting: int = 256,
        max_pending_per_client: int = 64,
        request_timeout: float = 30.0,
        read_only: bool = False,
        replication=None,
        follower=None,
        max_subscriptions: int = 64,
        subscription_queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        # Replication wiring: a read-only replica rejects mutating RPCs
        # (its store changes only through the feed); ``replication`` is
        # the primary's ReplicationFeed (subscribe_wal / lag reporting),
        # ``follower`` the replica's ReplicaFollower (progress reporting).
        self._read_only = read_only
        self._replication = replication
        self._follower = follower
        self.admission = AdmissionController(
            max_in_flight=max_in_flight,
            max_waiting=max_waiting,
            max_pending_per_client=max_pending_per_client,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=worker_threads, thread_name_prefix="gateway-worker"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: set = set()
        # Live subscriptions this gateway is pushing to: sid -> (channel,
        # subscriber).  Touched only on the event loop.
        self._max_subscriptions = max_subscriptions
        self._subscription_queue_limit = subscription_queue_limit
        self._channels: Dict[str, Tuple[PushChannel, Any]] = {}
        self._subscription_overflows = 0
        self._started = time.monotonic()
        self._requests: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._responses = 0
        # Reads answered on the event loop, without the pool.
        self._inline = 0
        # One handler per declared op, found by name: an op added to
        # protocol.OPS without a ``_serve_<op>`` method fails here.
        self._handlers = {name: getattr(self, f"_serve_{name}") for name in OPS}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the TCP listener; returns the actual ``(host, port)``."""
        from .session import ClientSession

        async def on_connect(reader, writer):
            session = ClientSession(self, reader, writer)
            self._sessions.add(session)
            try:
                await session.run()
            finally:
                self._sessions.discard(session)

        self._server = await asyncio.start_server(
            on_connect, self.host, self.port, limit=1 << 20
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    @property
    def address(self) -> Tuple[str, int]:
        """The listen address (final port once :meth:`start` returned)."""
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Serve until cancelled (``start`` must have been called)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self, drain: bool = True, timeout: float = 10.0) -> bool:
        """Shut down, by default draining in-flight work first.

        Stops accepting connections, rejects new requests with the
        ``draining`` code, waits up to ``timeout`` seconds for admitted
        and queued requests to complete (responses are flushed to their
        sockets), then closes the remaining sessions and the worker pool.
        Returns ``True`` if the backlog fully drained in time.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = await self.admission.drain(timeout if drain else 0.0)
        for sid in list(self._channels):
            self._drop_channel(sid)
        registry = getattr(self.service, "subscriptions", None)
        if registry is not None:
            for view in registry.stats()["views"]:
                registry.unsubscribe(view["subscription"])
        for session in list(self._sessions):
            await session.close()
        # Never block the event loop on worker threads: a drained pool is
        # already idle, and after a failed drain a stuck query must not
        # defeat the drain timeout we just honored.
        self._pool.shutdown(wait=False, cancel_futures=not drained)
        # Admission is closed and the pool is down: no more mutations can
        # start, so this is the moment acked-but-unfsynced WAL frames get
        # forced onto stable storage (a no-op without a durability layer).
        flush = getattr(self.service, "flush_durability", None)
        if flush is not None:
            await asyncio.get_running_loop().run_in_executor(None, flush)
        return drained

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def dispatch_line(
        self, line: bytes, client_id: str, subscriber=None
    ) -> Dict[str, Any]:
        """Decode one wire line and dispatch it (sessions' entry point)."""
        try:
            frame = decode_frame(line)
        except ProtocolError as exc:
            self._count(self._errors, exc.code)
            return error_response(None, exc)
        return await self.dispatch(frame, client_id, subscriber=subscriber)

    async def dispatch(
        self,
        frame: Dict[str, Any],
        client_id: str = "in-process",
        *,
        subscriber=None,
    ) -> Dict[str, Any]:
        """Handle one request frame; always returns a response frame.

        The in-process entry point — :class:`AsyncGatewayClient` in
        in-process mode calls this directly, bypassing TCP but exercising
        the identical parse → admit → (warm answer | single-flight → pool)
        → respond path.
        """
        try:
            payload = await self._handle(frame, client_id, subscriber)
        except Exception as exc:
            self._count(
                self._errors, exc.code if isinstance(exc, GatewayError) else "internal"
            )
            return error_response(frame.get("id"), exc)
        self._responses += 1
        return ok_response(frame.get("id"), payload)

    async def _handle(self, frame: Dict[str, Any], client_id: str, subscriber):
        request = parse_request(frame, self.service.schema)
        self._count(self._requests, request.op)
        spec = OPS[request.op]
        if self._read_only and spec.writes:
            # A replica's store changes only through the replication
            # feed; direct writes must go to the primary (the router
            # forwards them there automatically).
            raise ReadOnlyError(
                f"this gateway is a read-only replica; send {request.op!r} "
                "to the primary"
            )
        serve = self._handlers[request.op]
        timeout = self._timeout_for(request)
        if spec.inline:
            # Never queued: an overloaded or draining gateway must stay
            # observable, and the router polls replica_status on every
            # pinned read.
            return await serve(request, timeout, subscriber)
        if spec.warm and self.admission.try_admit(client_id):
            # A slot was free with nobody queued: no admission wait to
            # bound, so the handler's own wait carries the budget.
            try:
                return await serve(request, timeout, subscriber)
            finally:
                self.admission.release(client_id)
        try:
            # The budget covers the whole request: admission wait included.
            # Timing out while queued cancels only this waiter (the
            # controller reclaims the queue entry); timing out while
            # holding a slot abandons the wait on the shared flight, which
            # keeps running for everyone else.
            return await asyncio.wait_for(
                self._admitted(serve, request, client_id, timeout, subscriber),
                timeout,
            )
        except asyncio.TimeoutError:
            raise RequestTimeout(
                f"request did not complete within {timeout:g}s"
            ) from None

    def _timeout_for(self, request: Request) -> float:
        timeout = self.request_timeout
        option_timeout = request.options.get("timeout")
        if option_timeout is not None:
            timeout = min(timeout, float(option_timeout))
        return timeout

    async def _admitted(
        self, serve, request: Request, client_id: str, timeout: float, subscriber
    ) -> Dict[str, Any]:
        async with self.admission.slot(client_id):
            return await serve(request, timeout, subscriber)

    # ------------------------------------------------------------------
    # Op handlers: ``_serve_<op>(request, timeout, subscriber)`` per OPS entry
    # ------------------------------------------------------------------
    async def _serve_optimize(self, request: Request, timeout: float, subscriber):
        service, query = self.service, request.query
        use_cache = request.options.get("use_cache", True)
        warm = service.serve_warm(query, execute=False, use_cache=use_cache)
        if warm is not None:
            self._inline += 1
            return optimization_payload(warm)
        key = (
            "rpc",
            "optimize",
            equivalence_key(query),
            self._generation(),
            request.options_key(),
        )
        return await self._coalesced(
            key,
            lambda: optimization_payload(service.optimize(query, use_cache=use_cache)),
            timeout,
        )

    async def _serve_execute(self, request: Request, timeout: float, subscriber):
        service, query = self.service, request.query
        options = _work_options(request)
        warm = service.serve_warm(query, **options)
        if warm is not None:
            self._inline += 1
            return execution_payload(warm)
        key = (
            "rpc",
            "execute",
            equivalence_key(query),
            self._generation(),
            getattr(service.store, "version", None),
            request.options_key(),
        )
        return await self._coalesced(
            key, lambda: execution_payload(service.execute(query, **options)), timeout
        )

    async def _serve_execute_batch(self, request: Request, timeout: float, subscriber):
        service, options = self.service, _work_options(request)
        return await self._run_in_pool(
            lambda: batch_payload(service.execute_many(request.queries, **options)),
            timeout,
        )

    async def _serve_stats(self, request: Request, timeout: float, subscriber):
        return self.stats_payload()

    async def _serve_replica_status(self, request: Request, timeout: float, subscriber):
        return self.replica_status_payload()

    async def _serve_subscribe_wal(self, request: Request, timeout: float, subscriber):
        """Serve ``subscribe_wal``: where a replica should connect."""
        if self._replication is None:
            raise ReplicationUnavailable(
                "this gateway does not stream WAL frames; start the "
                "server with --replicate-on"
            )
        return self._replication.describe()

    async def _serve_backup(self, request: Request, timeout: float, subscriber):
        # An on-demand snapshot quiesces the store (write lock), so it
        # runs on the pool under the normal timeout budget.
        return await self._run_in_pool(self._backup_payload, timeout)

    async def _serve_rules(self, request: Request, timeout: float, subscriber):
        # A rule change is a write: it takes the commit path on the pool
        # (see OptimizationService.change_rules), with the mutations'
        # at-least-once timeout semantics.
        return await self._run_in_pool(
            lambda: self._change_rules(request), timeout, cancel_on_timeout=True
        )

    async def _serve_insert(self, request: Request, timeout: float, subscriber):
        # Writes are never coalesced — every mutation frame is distinct
        # work — but they run on the same bounded pool, under the same
        # admission slot and timeout as any other request.  A timeout
        # cancels the write if it has not started; once running it
        # commits (at-least-once semantics, see the protocol docs).
        return await self._run_in_pool(
            lambda: mutation_payload(self._mutate(request)),
            timeout,
            cancel_on_timeout=True,
        )

    # The four mutation ops differ only in the frame fields they carry.
    _serve_insert_many = _serve_update = _serve_delete = _serve_insert

    def _generation(self) -> int:
        repository = self.service.repository
        return repository.generation if repository is not None else 0

    def _change_rules(self, request: Request) -> Dict[str, Any]:
        repository = self.service.repository
        if repository is None:
            raise GatewayError("service has no constraint repository")
        name = request.rule.name if request.action == "add" else request.rule_name

        def change() -> Dict[str, Any]:
            """The declared-rule edit (write lock held)."""
            try:
                if request.action == "add":
                    repository.add(request.rule)
                else:
                    repository.remove(name)
            except Exception as exc:
                raise ProtocolError(f"cannot {request.action} rule: {exc}") from None
            return {
                "action": request.action,
                "name": name,
                "generation": repository.generation,
                "constraints": len(repository.declared()),
            }

        return self.service.change_rules(change)

    def _mutate(self, request: Request):
        """Apply one mutation RPC through the service's commit path.

        That path also advances the standing views, after the WAL commit
        and on this worker thread, before the RPC answers.
        """
        service = self.service
        if service.store is None:
            raise MutationError("service has no object store attached")
        try:
            return service.mutate(
                request.op,
                request.class_name,
                oid=request.oid,
                values=request.values,
                rows=request.rows,
            )
        except StorageError as exc:
            raise MutationError(str(exc)) from None

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    async def _serve_subscribe(self, request: Request, timeout: float, subscriber):
        """Serve ``subscribe``: bind a standing view pushing to ``subscriber``.

        The initial optimize + execute runs on the worker pool; the
        resulting diff frames flow through a bounded :class:`PushChannel`
        whose overflow handler unsubscribes and disconnects the consumer
        (the replication feed's slow-subscriber discipline).
        """
        if subscriber is None:
            raise ProtocolError(
                "subscribe requires a connection that can receive push frames"
            )
        if len(self._channels) >= self._max_subscriptions:
            raise SubscriptionLimit(
                f"gateway already holds {len(self._channels)} standing "
                f"views (--max-subscriptions {self._max_subscriptions})"
            )
        registry = self.service.subscription_registry()
        loop = asyncio.get_running_loop()
        channel = PushChannel(
            loop, subscriber.push_frame, limit=self._subscription_queue_limit
        )
        # The subscription id is only known once the registry binds the
        # view, so the overflow handler resolves it through this cell.
        cell: Dict[str, Any] = {"sid": None}

        async def on_overflow() -> None:
            self._subscription_overflows += 1
            sid = cell["sid"]
            if sid is not None:
                self._drop_channel(sid)
            closer = getattr(subscriber, "close", None)
            if closer is not None:
                await closer()

        channel.on_overflow = on_overflow
        options = _work_options(request)
        try:
            payload = await self._run_in_pool(
                lambda: registry.subscribe(
                    request.query,
                    options=options,
                    emit=channel.push,
                    owner=subscriber,
                ),
                timeout,
            )
        except ValueError as exc:
            channel.close()
            raise ProtocolError(str(exc)) from None
        except Exception:
            # A timed-out subscribe may still have registered the view on
            # the worker thread; it stays owned by ``subscriber`` and is
            # freed by release_subscriber() when the connection closes.
            channel.close()
            raise
        sid = payload["subscription"]
        cell["sid"] = sid
        self._channels[sid] = (channel, subscriber)
        return payload

    async def _serve_unsubscribe(self, request: Request, timeout: float, subscriber):
        """Serve ``unsubscribe``: drop one standing view by id."""
        registry = getattr(self.service, "subscriptions", None)
        sid = request.subscription
        self._drop_channel(sid)
        if registry is None or not registry.unsubscribe(sid):
            raise SubscriptionUnknown(
                f"this gateway is not serving subscription {sid!r}"
            )
        return {"subscription": sid, "active": registry.active}

    def release_subscriber(self, owner) -> int:
        """Free every standing view owned by a disconnecting consumer."""
        registry = getattr(self.service, "subscriptions", None)
        if registry is None:
            return 0
        sids = registry.release(owner)
        for sid in sids:
            self._drop_channel(sid)
        return len(sids)

    def _drop_channel(self, sid: str) -> None:
        entry = self._channels.pop(sid, None)
        if entry is not None:
            entry[0].close()

    def _backup_payload(self) -> Dict[str, Any]:
        """Serve the ``backup`` RPC: an on-demand durability snapshot."""
        backup = getattr(self.service, "backup", None)
        if backup is None:
            raise BackupUnavailable("service does not support backups")
        try:
            return backup()
        except ValueError as exc:
            raise BackupUnavailable(str(exc)) from None

    def replica_status_payload(self) -> Dict[str, Any]:
        """Serve ``replica_status``: role, versions, and peer progress."""
        version = getattr(self.service.store, "version", 0) or 0
        payload: Dict[str, Any] = {
            "read_only": self._read_only,
            "store_version": version,
            "applied_version": version,
        }
        if self._replication is not None:
            payload["role"] = "primary"
            payload.update(self._replication.status())
        elif self._follower is not None:
            payload["role"] = "replica"
            status = self._follower.status()
            payload.update(status)
            # The follower's applied version is authoritative for the
            # read-your-writes pin (it advances only after the record is
            # visible to readers).
            payload["applied_version"] = status.get("applied_version", version)
        else:
            payload["role"] = "standalone"
        return payload

    # ------------------------------------------------------------------
    # Single-flight plumbing
    # ------------------------------------------------------------------
    async def _coalesced(self, key, work, timeout: float) -> Dict[str, Any]:
        """Run ``work`` once per key; identical concurrent requests share it.

        The worker thread resolves the flight by handing the payload back
        to the event loop, so the flight's lifetime is tied to the *work*,
        not to any single waiter: abandoned waits (timeout, disconnect)
        leave the map untouched and the entry retires when the work
        finishes — it can never be poisoned into swallowing later requests.
        """
        flight = self.service.single_flight
        future, leader = flight.begin(key)
        if leader:
            loop = asyncio.get_running_loop()

            def run():
                try:
                    payload = work()
                except BaseException as exc:  # propagate to every waiter
                    loop.call_soon_threadsafe(flight.fail, key, exc)
                else:
                    loop.call_soon_threadsafe(flight.resolve, key, payload)

            try:
                self._pool.submit(run)
            except RuntimeError:  # pool already shut down
                flight.fail(key, GatewayDraining("gateway worker pool is closed"))
        payload = await self._wait_shared(future, timeout)
        if not leader:
            # Shallow copy: the payload object is shared by every waiter.
            payload = dict(payload, coalesced=True)
        return payload

    async def _run_in_pool(
        self, work, timeout: float, cancel_on_timeout: bool = False
    ):
        """Run uncoalesced work on the pool under the request timeout.

        ``cancel_on_timeout`` (mutations) cancels the pool task when the
        budget expires *before it started running* — a queued write whose
        caller already received a timeout error then never applies.  Work
        that is already running is never interrupted mid-write.
        """
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(self._pool, work)
        except RuntimeError:
            raise GatewayDraining("gateway worker pool is closed") from None
        try:
            return await self._bounded_wait(future, timeout)
        except RequestTimeout:
            if cancel_on_timeout:
                future.cancel()
            raise

    async def _wait_shared(self, future, timeout: float):
        """Await a shared concurrent future without ever cancelling it."""
        return await self._bounded_wait(asyncio.wrap_future(future), timeout)

    async def _bounded_wait(self, future: "asyncio.Future", timeout: float):
        """Await ``future`` for at most ``timeout``s, never cancelling it.

        The shield keeps a timeout or a cancelled waiter from propagating
        into the future (a cancelled ``wrap_future`` would cancel the
        *shared* single-flight future for every other waiter); the
        ``_consume`` callback keeps an abandoned future's outcome from
        warning when it eventually lands.
        """
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            future.add_done_callback(_consume)
            raise RequestTimeout(
                f"request did not complete within {timeout:g}s"
            ) from None
        except asyncio.CancelledError:
            future.add_done_callback(_consume)
            raise

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _count(self, counters: Dict[str, int], key: str) -> None:
        counters[key] = counters.get(key, 0) + 1

    def stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` RPC payload: service + gateway counters, one view."""
        admission = self.admission.snapshot()
        registry = getattr(self.service, "subscriptions", None)
        subscriptions: Dict[str, Any] = {
            "active": 0,
            "created": 0,
            "closed": 0,
            "diffs": 0,
            "resyncs": 0,
            "errors": 0,
            "views": [],
        }
        if registry is not None:
            subscriptions.update(registry.stats())
        subscriptions["channels"] = len(self._channels)
        subscriptions["overflows"] = self._subscription_overflows
        return {
            "protocol_version": PROTOCOL_VERSION,
            "service": self.service.stats().as_dict(),
            "subscriptions": subscriptions,
            "gateway": {
                "requests": dict(self._requests),
                "responses": self._responses,
                "errors": dict(self._errors),
                "sessions": len(self._sessions),
                "inline": self._inline,
                "uptime": time.monotonic() - self._started,
                "admission": {
                    "admitted": admission.admitted,
                    "active": admission.active,
                    "peak_active": admission.peak_active,
                    "waiting": admission.waiting,
                    "rejected_capacity": admission.rejected_capacity,
                    "rejected_client_limit": admission.rejected_client_limit,
                    "rejected_draining": admission.rejected_draining,
                    "rejected": admission.rejected,
                    "draining": admission.draining,
                },
            },
        }
