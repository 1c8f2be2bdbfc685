"""Tests for single-flight deduplication and atomic counter snapshots."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.caching import LruCache, SingleFlightMap
from repro.constraints import ConstraintRepository, build_example_constraints
from repro.query import parse_query
from repro.schema import build_example_schema
from repro.service import OptimizationService

PAPER_QUERY = (
    '(SELECT {vehicle.vehicle#, cargo.desc, cargo.quantity} { } '
    '{vehicle.desc = "refrigerated truck", supplier.name = "SFI"} '
    '{collects, supplies} {supplier, cargo, vehicle})'
)


@pytest.fixture()
def service():
    schema = build_example_schema()
    repository = ConstraintRepository(schema)
    repository.add_all(build_example_constraints())
    return OptimizationService(schema, repository=repository)


# ----------------------------------------------------------------------
# SingleFlightMap unit behaviour
# ----------------------------------------------------------------------
def test_single_flight_leader_and_followers():
    flight = SingleFlightMap()
    future, leader = flight.begin("k")
    assert leader
    follower_future, follower = flight.begin("k")
    assert not follower and follower_future is future
    flight.resolve("k", 41)
    assert future.result() == 41
    stats = flight.snapshot()
    assert (stats.leaders, stats.followers, stats.in_flight) == (1, 1, 0)
    assert stats.dedup_rate == 0.5


def test_single_flight_retires_key_before_resolving():
    flight = SingleFlightMap()
    future, _ = flight.begin("k")
    flight.resolve("k", "done")
    # A request arriving after completion must start fresh, not observe
    # the finished flight.
    _, leader = flight.begin("k")
    assert leader


def test_single_flight_failure_propagates_and_is_not_cached():
    flight = SingleFlightMap()
    future, _ = flight.begin("k")
    follower_future, _ = flight.begin("k")
    flight.fail("k", RuntimeError("boom"))
    with pytest.raises(RuntimeError):
        follower_future.result()
    # The next caller retries fresh.
    _, leader = flight.begin("k")
    assert leader


def test_single_flight_concurrent_threads_share_one_computation():
    flight = SingleFlightMap()
    future, leader = flight.begin("key")  # this thread leads...
    assert leader

    def join():
        shared, is_leader = flight.begin("key")
        assert not is_leader
        return shared.result(timeout=5)

    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(join) for _ in range(8)]
        deadline = time.time() + 5
        while flight.snapshot().followers < 8:  # ...until all 8 joined
            assert time.time() < deadline, "followers never joined"
            time.sleep(0.001)
        flight.resolve("key", "value")
        assert [f.result(timeout=5) for f in futures] == ["value"] * 8
    assert len(flight) == 0
    stats = flight.snapshot()
    assert (stats.leaders, stats.followers) == (1, 8)


# ----------------------------------------------------------------------
# Atomic counter snapshots
# ----------------------------------------------------------------------
def test_lru_cache_snapshot_is_internally_consistent_under_load():
    cache = LruCache(maxsize=32)
    stop = threading.Event()

    def hammer():
        index = 0
        while not stop.is_set():
            cache.put(index % 64, index)
            cache.get((index * 7) % 64)
            index += 1

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(200):
            snapshot = cache.snapshot()
            assert snapshot.lookups == snapshot.hits + snapshot.misses
            assert 0 <= snapshot.entries <= snapshot.maxsize
            assert 0.0 <= snapshot.hit_rate <= 1.0
    finally:
        stop.set()
        for thread in threads:
            thread.join()


def test_service_stats_snapshot_shape(service):
    query = parse_query(PAPER_QUERY)
    service.optimize(query)
    service.optimize(query)
    stats = service.stats()
    assert stats.cache.result_hits == 1
    assert stats.cache.result_misses == 1
    assert stats.repository_constraints == 5
    assert stats.store_attached is False
    payload = stats.as_dict()
    assert payload["cache"]["result_hits"] == 1
    assert payload["repository"]["constraints"] == 5
    assert payload["single_flight"]["in_flight"] == 0
