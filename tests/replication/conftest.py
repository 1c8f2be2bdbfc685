"""Shared harness for the replication suite.

Replication tests run real asyncio event loops via ``asyncio.run``
inside synchronous test functions (the suite has no async test plugin),
with the primary and every replica living in the same process but
talking over real localhost TCP — the feed, acks and router traffic all
cross actual sockets.  Each test builds its own stores and services so
mutations never leak between tests.
"""

import asyncio
import time

import pytest

from repro.constraints import ConstraintRepository
from repro.data import build_evaluation_constraints, build_evaluation_schema
from repro.durability import DurabilityManager
from repro.engine.storage import ShardedObjectStore
from repro.replication import ReplicaFollower, ReplicationFeed
from repro.service import OptimizationService


@pytest.fixture(scope="module")
def schema():
    return build_evaluation_schema()


def seed_store(schema, shard_count=3, cargo_rows=6, **store_kwargs):
    """A private store with a vehicle and a few cargo rows."""
    store = ShardedObjectStore(schema, shard_count=shard_count, **store_kwargs)
    store.insert(
        "vehicle",
        {"vehicle_no": "V0", "desc": "refrigerated truck", "class": 2,
         "capacity": 4000},
    )
    for i in range(cargo_rows):
        store.insert(
            "cargo",
            {"code": f"C{i}", "desc": "frozen food", "quantity": 100 + i,
             "category": "general", "collects": 1},
        )
    return store


def build_service(schema, store):
    """A fresh service (own constraint repository) over ``store``."""
    repository = ConstraintRepository(schema)
    repository.add_all(build_evaluation_constraints())
    return OptimizationService(schema, repository=repository, store=store)


def fingerprint(store):
    """Everything replication promises to reproduce, byte for byte."""
    return (
        list(store.snapshot_rows()),
        store.shard_versions(),
        dict(store.snapshot_header()),
    )


class ReplicationHarness:
    """One primary (service + feed, wired the way ``serve`` does) plus N followers."""

    def __init__(self, schema, *, shard_count=3, journal_limit=None,
                 queue_limit=10_000, cargo_rows=6, data_dir=None):
        store_kwargs = {}
        if journal_limit is not None:
            store_kwargs["journal_limit"] = journal_limit
        self.schema = schema
        self.store = seed_store(
            schema, shard_count=shard_count, cargo_rows=cargo_rows,
            **store_kwargs,
        )
        # The order ``serve`` wires a primary in: open the data dir, build
        # the service over the store it returns, attach durability, then
        # construct the feed (which registers itself with the service).
        self.manager = None
        if data_dir is not None:
            self.manager = DurabilityManager(str(data_dir), fsync_policy="always")
            self.store, _ = self.manager.open(self.store)
        self.service = build_service(schema, self.store)
        if self.manager is not None:
            self.service.attach_durability(self.manager)
        self.feed = ReplicationFeed(self.service, queue_limit=queue_limit)
        self.followers = []
        self.replica_services = []
        self.replica_stores = []

    async def start(self):
        return await self.feed.start()

    async def add_replica(self, **follower_kwargs):
        follower = ReplicaFollower(
            self.schema, self.feed.host, self.feed.port, **follower_kwargs
        )
        store = await follower.bootstrap()
        service = build_service(self.schema, store)
        follower.attach(service)
        follower.start()
        self.followers.append(follower)
        self.replica_services.append(service)
        self.replica_stores.append(store)
        return follower, service, store

    async def wait_applied(self, version=None, timeout=15.0):
        """Block until every follower has applied ``version`` (default:
        the primary's current version).  The follower may swap its store
        on a resync, so versions are read through ``applied_version``."""
        target = self.store.version if version is None else version
        deadline = time.monotonic() + timeout
        while any(f.applied_version < target for f in self.followers):
            if time.monotonic() > deadline:
                states = [f.status() for f in self.followers]
                raise AssertionError(
                    f"followers never reached v{target}: {states}"
                )
            await asyncio.sleep(0.01)

    async def wait_acked(self, version=None, count=None, timeout=15.0):
        """Block until ``count`` subscribers have acked ``version``."""
        target = self.store.version if version is None else version
        expect = len(self.followers) if count is None else count
        deadline = time.monotonic() + timeout
        while True:
            acked = [
                replica
                for replica in self.feed.status()["replicas"]
                if replica["acked_version"] >= target
            ]
            if len(acked) >= expect:
                return
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"feed never saw {expect} ack(s) of v{target}: "
                    f"{self.feed.status()}"
                )
            await asyncio.sleep(0.01)

    async def stop(self):
        for follower in self.followers:
            await follower.stop()
        await self.feed.stop()
        for service in self.replica_services:
            service.close()
        self.service.close()
        if self.manager is not None:
            self.manager.close()


@pytest.fixture()
def make_harness(schema):
    """Factory: ``make_harness(journal_limit=..., queue_limit=...)``."""
    return lambda **kwargs: ReplicationHarness(schema, **kwargs)


@pytest.fixture()
def state_fingerprint():
    """The byte-identity oracle as a fixture (conftest is not importable)."""
    return fingerprint


@pytest.fixture()
def make_store(schema):
    """Factory for a seeded private store."""
    return lambda **kwargs: seed_store(schema, **kwargs)


@pytest.fixture()
def make_service(schema):
    """Factory for a fresh service over a given store."""
    return lambda store: build_service(schema, store)
