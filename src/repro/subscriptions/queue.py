"""Bounded push channel: worker-thread producers, event-loop consumer.

Frames are produced on whichever thread commits a write (diff frames by
the standing-view pump, replication frames by the feed's ``publish``) but
must be written by the asyncio task that owns the socket.
:class:`PushChannel` bridges the two, and is the one slow-consumer
discipline of both: a bounded pending deque, and on overflow the channel
marks itself overflowed, drops everything, and fires ``on_overflow``
exactly once on the event loop — the gateway uses that to unsubscribe and
disconnect the consumer, the replication feed to disconnect the replica.
A slow consumer is *never* silently skipped ahead; it is cut off so it
knows to resubscribe (or resync).
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Any, Awaitable, Callable, Deque, Optional

__all__ = ["PushChannel", "DEFAULT_QUEUE_LIMIT"]

#: Pending push frames per subscription before the consumer is cut off.
DEFAULT_QUEUE_LIMIT = 1024


class PushChannel:
    """One ordered frame queue toward one consumer."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        deliver: Callable[[Any], Awaitable[None]],
        *,
        limit: int = DEFAULT_QUEUE_LIMIT,
        on_overflow: Optional[Callable[[], Awaitable[None]]] = None,
    ):
        self._loop = loop
        self._deliver = deliver
        self._limit = max(int(limit), 1)
        #: Set (once) by the gateway after the subscription id is known.
        self.on_overflow = on_overflow
        self._pending: Deque[Any] = deque()
        self._lock = threading.Lock()
        self._task: Optional[asyncio.Task] = None
        self.closed = False
        self.overflowed = False
        self.pushed = 0
        self.delivered = 0
        self.dropped = 0

    def push(self, frame: Any) -> None:
        """Enqueue one frame (any thread) and wake the loop-side drain."""
        with self._lock:
            if self.closed or self.overflowed:
                self.dropped += 1
                return
            self._pending.append(frame)
            self.pushed += 1
            if len(self._pending) > self._limit:
                # Never skip ahead: drop the whole backlog and cut the
                # consumer off (the drain fires on_overflow once).
                self.overflowed = True
                self.dropped += len(self._pending)
                self._pending.clear()
        try:
            self._loop.call_soon_threadsafe(self._spawn_drain)
        except RuntimeError:
            pass  # loop already closed (shutdown); nothing to deliver to

    def close(self) -> None:
        """Stop delivering; pending frames are discarded."""
        with self._lock:
            self.closed = True
            self.dropped += len(self._pending)
            self._pending.clear()

    def _spawn_drain(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        while True:
            overflow = None
            frame = None
            with self._lock:
                if self.overflowed and not self.closed:
                    self.closed = True
                    overflow = self.on_overflow
                elif not self.closed and self._pending:
                    frame = self._pending.popleft()
            if overflow is not None:
                await overflow()
                return
            if frame is None:
                return
            try:
                await self._deliver(frame)
            except Exception:
                # The consumer is gone (reset mid-write, closed loop
                # state): stop delivering; the session's own close path
                # releases the subscription.
                self.close()
                return
            self.delivered += 1
