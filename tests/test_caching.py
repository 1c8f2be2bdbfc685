"""Tests for the shared thread-safe LRU cache and readers-writer lock."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.caching import LruCache, ReadWriteLock


def test_hit_miss_and_eviction_accounting():
    cache = LruCache(2)
    assert cache.get("a") is None
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # "a" is now most recently used
    cache.put("c", 3)  # evicts "b"
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.hits == 3
    assert cache.misses == 2
    assert cache.evictions == 1
    assert len(cache) == 2


def test_zero_maxsize_disables_without_counting():
    cache = LruCache(0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert cache.hits == 0
    assert cache.misses == 0
    assert len(cache) == 0


def test_clear_keeps_counters():
    cache = LruCache(4)
    cache.put("a", 1)
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1
    assert cache.get("a") is None


def test_concurrent_use_is_consistent():
    cache = LruCache(128)

    def worker(offset):
        for i in range(100):
            cache.put((offset, i), i)
            cache.get((offset, i))

    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(worker, range(4)))
    assert cache.hits + cache.misses == 400
    assert len(cache) <= 128


def test_contains_is_a_peek():
    cache = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert "a" in cache and "z" not in cache
    cache.put("c", 3)  # "a" was not made recent by the peek: it is evicted
    assert "a" not in cache
    assert (cache.hits, cache.misses) == (0, 0)


def _until(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


def _hold(lock, side, entered, release):
    """A thread holding ``side`` of ``lock`` until ``release`` is set."""

    def run():
        with getattr(lock, side)():
            entered.set()
            release.wait(10)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def test_try_read_fails_while_a_writer_holds_the_lock():
    lock, entered, release = ReadWriteLock(), threading.Event(), threading.Event()
    writer = _hold(lock, "write", entered, release)
    assert entered.wait(5)
    with lock.try_read() as held:
        assert held is False
    release.set()
    writer.join(5)
    assert not writer.is_alive()
    with lock.try_read() as held:
        assert held is True


def test_try_read_fails_while_a_writer_waits():
    lock, entered, release = ReadWriteLock(), threading.Event(), threading.Event()
    reader = _hold(lock, "read", entered, release)
    assert entered.wait(5)
    writer = _hold(lock, "write", threading.Event(), release)
    _until(lambda: lock._writers_waiting == 1)
    with lock.try_read() as held:
        assert held is False  # writer priority: no new reader jumps the queue
    release.set()
    reader.join(5)
    writer.join(5)
    assert not reader.is_alive() and not writer.is_alive()


def test_try_read_shares_with_readers():
    lock = ReadWriteLock()
    with lock.read():
        with lock.try_read() as first, lock.try_read() as second:
            assert (first, second) == (True, True)
            assert lock._readers == 3
    assert lock._readers == 0


def test_releasing_try_read_wakes_a_waiting_writer():
    lock, acquired, release = ReadWriteLock(), threading.Event(), threading.Event()
    with lock.try_read() as held:
        assert held
        writer = _hold(lock, "write", acquired, release)
        _until(lambda: lock._writers_waiting == 1)
        assert not acquired.is_set()
    assert acquired.wait(5)
    release.set()
    writer.join(5)
    assert not writer.is_alive()
