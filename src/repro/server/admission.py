"""Admission control for the async query gateway.

The gateway accepts requests from many connections but runs them on a
bounded worker pool; :class:`AdmissionController` is the valve between the
two.  It enforces three limits:

* **max in-flight** — at most ``max_in_flight`` requests hold an execution
  slot at once; later arrivals wait in a queue.
* **per-client fairness** — waiters are queued *per client* and slots are
  granted round-robin across clients, so a client flooding requests cannot
  starve the others; each client is additionally bounded to
  ``max_pending_per_client`` outstanding requests (admitted + waiting) and
  rejected with :class:`~repro.server.errors.ClientQueueFull` beyond it.
  A "client" is whatever identity the session layer hands in: the peer
  address for TCP connections (so the fairness unit is the connection),
  the caller-chosen id for in-process clients.
* **bounded waiting** — at most ``max_waiting`` requests wait overall;
  beyond that the gateway sheds load with
  :class:`~repro.server.errors.AdmissionError` instead of queueing without
  bound.

A read the gateway answers on the event loop holds a slot too, taken
and given back around the synchronous call (:meth:`~AdmissionController.try_admit`
/ :meth:`~AdmissionController.release`) only when one is free without
waiting; otherwise it goes through :meth:`~AdmissionController.slot` like
any other request, so the limits, shedding and drain below apply to it.

Draining (:meth:`AdmissionController.drain`) flips the controller into
shutdown mode: new arrivals are rejected with
:class:`~repro.server.errors.GatewayDraining` while everything already
admitted or queued runs to completion; ``drain`` returns once the
controller is idle.  All state is touched from the event loop only, so no
locks are needed.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from contextlib import asynccontextmanager
from dataclasses import dataclass
from typing import Deque, Dict

from .errors import AdmissionError, ClientQueueFull, GatewayDraining


@dataclass(frozen=True)
class AdmissionStats:
    """Point-in-time admission counters (immutable snapshot)."""

    admitted: int = 0
    active: int = 0
    peak_active: int = 0
    waiting: int = 0
    rejected_capacity: int = 0
    rejected_client_limit: int = 0
    rejected_draining: int = 0
    draining: bool = False

    @property
    def rejected(self) -> int:
        """Total requests turned away, for any reason."""
        return (
            self.rejected_capacity
            + self.rejected_client_limit
            + self.rejected_draining
        )


class AdmissionController:
    """Bounded, per-client-fair admission to the gateway's worker pool."""

    def __init__(
        self,
        max_in_flight: int = 64,
        max_waiting: int = 256,
        max_pending_per_client: int = 64,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.max_in_flight = max_in_flight
        self.max_waiting = max(0, max_waiting)
        self.max_pending_per_client = max(1, max_pending_per_client)
        self._active = 0
        self._waiting = 0
        # client id -> FIFO of waiter futures; OrderedDict doubles as the
        # round-robin rotation (pop the first client, re-append if it still
        # has waiters).
        self._queues: "OrderedDict[str, Deque[asyncio.Future]]" = OrderedDict()
        self._pending: Dict[str, int] = {}
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._admitted = 0
        self._peak_active = 0
        self._rejected_capacity = 0
        self._rejected_client_limit = 0
        self._rejected_draining = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @asynccontextmanager
    async def slot(self, client_id: str):
        """Hold one execution slot for the duration of the ``with`` body.

        Raises an :class:`AdmissionError` subclass when the request cannot
        be admitted.  Cancelling a waiting request (timeout, disconnect)
        removes it from the queue without consuming a slot.
        """
        await self._acquire(client_id)
        try:
            yield
        finally:
            self.release(client_id)

    def try_admit(self, client_id: str) -> bool:
        """Take a slot if :meth:`slot` would grant one without waiting.

        That is: not draining, a slot free, nobody queued, and the client
        under its pending bound.  Otherwise it returns ``False`` having
        counted nothing — the caller then goes through :meth:`slot`,
        which queues, sheds or refuses the request and counts that.  A
        ``True`` must be paired with :meth:`release`.
        """
        if (
            self._draining
            or self._pending.get(client_id, 0) >= self.max_pending_per_client
            or not self._slot_free()
        ):
            return False
        self._admit(client_id)
        return True

    def _slot_free(self) -> bool:
        return self._active < self.max_in_flight and not self._queues

    async def _acquire(self, client_id: str) -> None:
        if self._draining:
            self._rejected_draining += 1
            raise GatewayDraining("gateway is draining; not accepting new requests")
        if self._pending.get(client_id, 0) >= self.max_pending_per_client:
            self._rejected_client_limit += 1
            raise ClientQueueFull(
                f"client {client_id!r} already has "
                f"{self.max_pending_per_client} requests pending"
            )
        if self._slot_free():
            self._admit(client_id)
            return
        if self._waiting >= self.max_waiting:
            self._rejected_capacity += 1
            raise AdmissionError(
                f"gateway overloaded: {self._active} in flight, "
                f"{self._waiting} waiting"
            )
        waiter: asyncio.Future = asyncio.get_running_loop().create_future()
        queue = self._queues.get(client_id)
        if queue is None:
            queue = deque()
            self._queues[client_id] = queue
        queue.append(waiter)
        self._waiting += 1
        self._pending[client_id] = self._pending.get(client_id, 0) + 1
        self._idle.clear()
        try:
            await waiter
        except asyncio.CancelledError:
            # Abandoned while waiting (timeout / disconnect).
            self._pending[client_id] = self._pending.get(client_id, 1) - 1
            if waiter.done() and not waiter.cancelled():
                # The slot was granted in the same instant; hand it on.
                self._active -= 1
                self._dispatch()
            else:
                waiter.cancel()
                try:
                    queue.remove(waiter)
                    self._waiting -= 1
                except ValueError:  # already dropped by _dispatch
                    pass
            self._cleanup_client(client_id)
            self._check_idle()
            raise
        # Granted: _dispatch already moved the waiter out of the queue and
        # incremented the active count; just account the admission.
        self._admitted += 1
        self._peak_active = max(self._peak_active, self._active)

    def _admit(self, client_id: str) -> None:
        self._active += 1
        self._admitted += 1
        self._peak_active = max(self._peak_active, self._active)
        self._pending[client_id] = self._pending.get(client_id, 0) + 1
        self._idle.clear()

    def release(self, client_id: str) -> None:
        """Give back a slot taken by :meth:`try_admit` (:meth:`slot` does its own)."""
        self._active -= 1
        self._pending[client_id] = self._pending.get(client_id, 1) - 1
        self._cleanup_client(client_id)
        self._dispatch()
        self._check_idle()

    def _dispatch(self) -> None:
        """Grant freed slots to waiters, round-robin across clients."""
        while self._active < self.max_in_flight and self._queues:
            client_id, queue = next(iter(self._queues.items()))
            self._queues.pop(client_id)
            while queue and queue[0].done():  # cancelled waiters
                queue.popleft()
                self._waiting -= 1
            if not queue:
                continue
            waiter = queue.popleft()
            self._waiting -= 1
            if queue:  # rotate: this client goes to the back of the ring
                self._queues[client_id] = queue
            self._active += 1
            waiter.set_result(None)

    def _cleanup_client(self, client_id: str) -> None:
        if self._pending.get(client_id) == 0:
            del self._pending[client_id]
        queue = self._queues.get(client_id)
        if queue is not None and not any(not w.done() for w in queue):
            self._queues.pop(client_id)

    def _check_idle(self) -> None:
        if self._active == 0 and self._waiting == 0:
            self._idle.set()

    # ------------------------------------------------------------------
    # Drain and stats
    # ------------------------------------------------------------------
    async def drain(self, timeout: "float | None" = None) -> bool:
        """Stop admitting new requests and wait for the backlog to finish.

        Everything already admitted or queued completes normally; only new
        arrivals are rejected.  Returns ``True`` when the controller went
        idle within ``timeout`` seconds (``None`` = wait forever).
        """
        self._draining = True
        self._check_idle()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def snapshot(self) -> AdmissionStats:
        """All counters as one immutable snapshot."""
        return AdmissionStats(
            admitted=self._admitted,
            active=self._active,
            peak_active=self._peak_active,
            waiting=self._waiting,
            rejected_capacity=self._rejected_capacity,
            rejected_client_limit=self._rejected_client_limit,
            rejected_draining=self._rejected_draining,
            draining=self._draining,
        )
