"""Thread-safe caching primitives shared by the caching layers.

Three caches in the system follow the same pattern — the repository's
constraint-retrieval and closure caches and the service's result cache:
keyed lookups, least-recently-used eviction at a size bound, and hit /
miss / eviction counters for reporting.  :class:`LruCache` implements that
pattern once, behind its own lock so callers on different threads can
share an instance without coordination.  :meth:`LruCache.snapshot` reads
every counter under that same lock, so concurrent reporting (the service's
``stats`` RPC) sees one consistent point in time instead of counters torn
across in-flight updates.

:class:`SingleFlightMap` is the companion primitive for *in-flight*
deduplication: where the LRU cache collapses repeated work over time, the
single-flight map collapses identical work happening *right now* — N
concurrent requests for the same key cost one computation, with the N-1
followers waiting on the leader's future.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Generic, Iterator, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")


@dataclass(frozen=True)
class CacheCounters:
    """One consistent point-in-time view of an :class:`LruCache`.

    Produced by :meth:`LruCache.snapshot` with the cache lock held, so the
    fields are mutually consistent even while other threads keep hitting
    the cache.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class SingleFlightStats:
    """Point-in-time counters of a :class:`SingleFlightMap`."""

    #: Calls that started a fresh computation.
    leaders: int = 0
    #: Calls that attached to an already in-flight computation.
    followers: int = 0
    #: Keys currently being computed.
    in_flight: int = 0

    @property
    def calls(self) -> int:
        """Total deduplicated entry points (leaders + followers)."""
        return self.leaders + self.followers

    @property
    def dedup_rate(self) -> float:
        """Fraction of calls that shared another call's work."""
        return self.followers / self.calls if self.calls else 0.0


class LruCache(Generic[K, V]):
    """Thread-safe LRU mapping with hit/miss/eviction accounting.

    A ``maxsize`` of ``0`` disables the cache: lookups return ``None``
    without counting and stores are dropped, so callers need no separate
    enabled/disabled branch.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = max(0, maxsize)
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: K) -> Optional[V]:
        """The cached value for ``key`` (marked most recently used), or ``None``."""
        if self.maxsize == 0:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def __contains__(self, key: object) -> bool:
        """Whether ``key`` is cached — a peek: no counter or recency moves."""
        with self._lock:
            return key in self._entries

    def put(self, key: K, value: V) -> None:
        """Store ``key`` as most recently used, evicting the oldest past the bound."""
        if self.maxsize == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> CacheCounters:
        """All counters read atomically under the cache lock.

        Prefer this over reading :attr:`hits` / :attr:`misses` /
        :attr:`evictions` individually when the numbers are reported
        together: individual property reads can interleave with concurrent
        updates and produce a torn view (e.g. more hits than lookups).
        """
        with self._lock:
            return CacheCounters(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                maxsize=self.maxsize,
            )

    @property
    def hits(self) -> int:
        """Lookups answered from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that found nothing."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Entries dropped by the size bound."""
        return self._evictions

    def __len__(self) -> int:
        return len(self._entries)


class ReadWriteLock:
    """A readers-writer lock for the single-writer live mutation path.

    Any number of readers (query executions) may hold the lock together; a
    writer (a store mutation) waits for the readers to drain and then runs
    exclusively.  Writers take priority over *new* readers once waiting, so
    a steady read workload cannot starve writes.  Not reentrant — a thread
    must not acquire the read side while holding the write side (the write
    section simply performs its reads directly; it is already exclusive).

    >>> lock = ReadWriteLock()
    >>> with lock.read():
    ...     pass  # shared with other readers
    >>> with lock.write():
    ...     pass  # exclusive
    >>> with lock.try_read() as held:
    ...     held  # taken only if no writer holds or waits for the lock
    True
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        """Hold the shared (reader) side for the duration of the block."""
        with self._condition:
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            self._release_read()

    @contextmanager
    def try_read(self) -> Iterator[bool]:
        """The shared side if it is free right now; yields whether it was taken.

        Never waits: while a writer holds the lock *or waits* for it, the
        block runs with ``False`` and holds nothing, so writer priority is
        the same as for :meth:`read`.  For a caller that must not block
        (the event loop) and has somewhere else to send the work.
        """
        with self._condition:
            held = not (self._writer or self._writers_waiting)
            if held:
                self._readers += 1
        if not held:
            yield False
            return
        try:
            yield True
        finally:
            self._release_read()

    def _release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Hold the exclusive (writer) side for the duration of the block."""
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._condition.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._condition:
                self._writer = False
                self._condition.notify_all()


class SingleFlightMap(Generic[K, V]):
    """Collapse concurrent computations of the same key into one.

    The first caller to :meth:`begin` a key becomes the **leader** and is
    expected to perform the computation and publish it with
    :meth:`resolve` (or :meth:`fail`); every caller that begins the same
    key while the leader is still working becomes a **follower** and
    receives the *same* future, so N identical concurrent requests cost
    one computation.

    The map is safe to drive from plain threads and from asyncio alike:
    entries hold :class:`concurrent.futures.Future` objects, which threads
    can ``result()`` on directly and event loops can await through
    :func:`asyncio.wrap_future`.

    Abandonment safety — the property the gateway's timeout tests pin —
    falls out of the protocol: a follower that stops waiting (request
    timeout, client disconnect) merely drops its reference to the shared
    future.  The leader's resolve/fail is what removes the key, so an
    abandoned wait can never strand a stale entry that would swallow
    future requests ("poisoning" the map).

    >>> flight = SingleFlightMap()
    >>> future, leader = flight.begin("answer")
    >>> leader
    True
    >>> follower_future, also_leader = flight.begin("answer")
    >>> (follower_future is future, also_leader)
    (True, False)
    >>> flight.resolve("answer", 42)
    >>> follower_future.result()
    42
    >>> flight.snapshot().dedup_rate
    0.5
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: "OrderedDict[K, Future]" = OrderedDict()
        self._leaders = 0
        self._followers = 0

    def begin(self, key: K) -> Tuple["Future[V]", bool]:
        """Join the in-flight computation for ``key``.

        Returns ``(future, is_leader)``.  A leader must eventually call
        :meth:`resolve` or :meth:`fail` for the key — followers only wait.
        """
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                self._followers += 1
                return future, False
            future = Future()
            self._inflight[key] = future
            self._leaders += 1
            return future, True

    def resolve(self, key: K, value: V) -> None:
        """Publish the leader's result and retire the key.

        The key is removed *before* the future is resolved, so a request
        arriving after completion starts a fresh computation instead of
        observing a stale result.
        """
        future = self._pop(key)
        if future is not None and not future.done():
            future.set_result(value)

    def fail(self, key: K, exception: BaseException) -> None:
        """Propagate the leader's failure to every follower and retire the key.

        Failures are never cached: the next request for the key elects a
        fresh leader and retries the computation.
        """
        future = self._pop(key)
        if future is not None and not future.done():
            future.set_exception(exception)

    def _pop(self, key: K) -> Optional["Future[V]"]:
        with self._lock:
            return self._inflight.pop(key, None)

    def snapshot(self) -> SingleFlightStats:
        """All counters read atomically under the map lock."""
        with self._lock:
            return SingleFlightStats(
                leaders=self._leaders,
                followers=self._followers,
                in_flight=len(self._inflight),
            )

    def __len__(self) -> int:
        return len(self._inflight)
