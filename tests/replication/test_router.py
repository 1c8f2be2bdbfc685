"""The consistent-hash router: ring determinism, routing, failover.

Unit-pins the ring (stable across construction order and processes —
no ``hash()`` anywhere near routing) and then drives a real topology —
primary gateway + two read-only replica gateways + router, all over
localhost TCP — asserting reads land on replicas, writes land on the
primary, read-your-writes holds across a write, replicas reject direct
writes with the ``read_only`` wire code, and a dead replica fails over
without a client-visible error.
"""

import asyncio

import pytest

from repro.query import parse_query
from repro.query.equivalence import equivalence_key
from repro.replication import ConsistentHashRing, QueryRouter, route_key
from repro.server import AsyncGatewayClient, GatewayRequestError, QueryGateway

ENDPOINTS = ["10.0.0.1:7431", "10.0.0.2:7431", "10.0.0.3:7431"]

QUERIES = [
    '(SELECT {cargo.code, cargo.quantity} { } {cargo.quantity >= 0} { } {cargo})',
    '(SELECT {cargo.code} { } {cargo.quantity >= 100} { } {cargo})',
    '(SELECT {cargo.desc} { } {cargo.quantity >= 101} { } {cargo})',
    '(SELECT {cargo.code, vehicle.desc} { } '
    '{vehicle.desc = "refrigerated truck"} {collects} {cargo, vehicle})',
    '(SELECT {vehicle.vehicle_no} { } {vehicle.capacity >= 0} { } {vehicle})',
    '(SELECT {cargo.category} { } {cargo.quantity >= 102} { } {cargo})',
]


# ----------------------------------------------------------------------
# Ring units.
# ----------------------------------------------------------------------
def test_ring_is_deterministic_and_order_insensitive():
    ring_a = ConsistentHashRing(ENDPOINTS)
    ring_b = ConsistentHashRing(list(reversed(ENDPOINTS)))
    keys = [f"key-{i}" for i in range(300)]
    assert [ring_a.node_for(k) for k in keys] == [
        ring_b.node_for(k) for k in keys
    ]
    # Every endpoint serves a share of a large keyspace.
    assert {ring_a.node_for(k) for k in keys} == set(ENDPOINTS)


def test_nodes_for_walks_every_endpoint_once():
    ring = ConsistentHashRing(ENDPOINTS)
    walk = list(ring.nodes_for("some-key"))
    assert sorted(walk) == sorted(ENDPOINTS)
    assert len(set(walk)) == len(ENDPOINTS)


def test_single_endpoint_ring_routes_everything_to_it():
    ring = ConsistentHashRing(["only:1"])
    assert ring.node_for("a") == "only:1"
    assert list(ring.nodes_for("b")) == ["only:1"]


def test_route_key_canonicalizes_equivalent_queries():
    # Same semantics, different predicate order: one route key, so both
    # land on the same replica's warm caches.
    text_a = (
        '(SELECT {cargo.code} { } '
        '{cargo.quantity >= 5, cargo.desc = "frozen food"} { } {cargo})'
    )
    text_b = (
        '(SELECT {cargo.code} { } '
        '{cargo.desc = "frozen food", cargo.quantity >= 5} { } {cargo})'
    )
    key_a = route_key(equivalence_key(parse_query(text_a, name="a")))
    key_b = route_key(equivalence_key(parse_query(text_b, name="b")))
    assert key_a == key_b
    other = route_key(
        equivalence_key(parse_query(QUERIES[1], name="c"))
    )
    assert other != key_a


# ----------------------------------------------------------------------
# End-to-end topology.
# ----------------------------------------------------------------------
def test_router_reads_on_replicas_writes_on_primary(make_harness):
    async def scenario():
        harness = make_harness()
        await harness.start()
        f1, s1, _ = await harness.add_replica()
        f2, s2, _ = await harness.add_replica()
        primary_gw = QueryGateway(harness.service, replication=harness.feed)
        replica_gw1 = QueryGateway(s1, read_only=True, follower=f1)
        replica_gw2 = QueryGateway(s2, read_only=True, follower=f2)
        router = None
        client = None
        direct = None
        try:
            await primary_gw.start()
            await replica_gw1.start()
            await replica_gw2.start()
            router = QueryRouter(
                f"127.0.0.1:{primary_gw.port}",
                [f"127.0.0.1:{replica_gw1.port}",
                 f"127.0.0.1:{replica_gw2.port}"],
                retry_reads=1,  # fail over fast once a replica is down
            )
            host, port = await router.start()
            client = await AsyncGatewayClient.connect(host, port)

            def reads(gateway):
                return gateway.stats_payload()["gateway"]["requests"].get("execute", 0)

            texts = QUERIES * 2
            for text in texts:
                payload = await client.execute(text)
                assert "rows" in payload
            # The ring is keyed on the gateways' ephemeral ports, and some
            # port pairs send all six queries to one replica: read further
            # distinct queries until the other has served one too.
            while min(reads(replica_gw1), reads(replica_gw2)) == 0 and len(texts) < 76:
                texts.append(
                    "(SELECT {cargo.code} { } {cargo.quantity >= %d} { } {cargo})"
                    % (1000 + len(texts))
                )
                assert "rows" in await client.execute(texts[-1])
            # Reads never touched the primary; both replicas served some.
            replica_reads = (reads(replica_gw1), reads(replica_gw2))
            primary_reads = reads(primary_gw)

            # A write forwards to the primary, and the very next read on
            # the same connection sees it (read-your-writes).
            inserted = await client.insert(
                "cargo",
                {"code": "RYW", "desc": "frozen food", "quantity": 424242,
                 "category": "general", "collects": 1},
            )
            assert inserted["store_version"] == harness.store.version
            after = await client.execute(
                '(SELECT {cargo.code} { } {cargo.quantity >= 424242} { } {cargo})'
            )
            codes = {row["cargo.code"] for row in after["rows"]}
            assert "RYW" in codes

            # Direct writes to a replica are rejected with the wire code.
            direct = await AsyncGatewayClient.connect(
                "127.0.0.1", replica_gw1.port
            )
            with pytest.raises(GatewayRequestError) as excinfo:
                await direct.insert("cargo", {"desc": "nope"})
            assert excinfo.value.code == "read_only"
            with pytest.raises(GatewayRequestError) as excinfo:
                await direct.remove_rule("any-rule")
            assert excinfo.value.code == "read_only"

            # Kill one replica: every read still answers via failover.
            await replica_gw2.stop()
            for text in texts:
                payload = await client.execute(text)
                assert "rows" in payload
            status = router.status()
            return replica_reads, primary_reads, status, len(texts)
        finally:
            if client is not None:
                await client.close()
            if direct is not None:
                await direct.close()
            if router is not None:
                await router.stop()
            await primary_gw.stop()
            await replica_gw1.stop()
            await replica_gw2.stop()
            await harness.stop()

    replica_reads, primary_reads, status, reads_issued = asyncio.run(scenario())
    assert primary_reads == 0
    assert sum(replica_reads) == reads_issued
    assert min(replica_reads) > 0, (
        f"consistent hashing should spread this workload: {replica_reads}"
    )
    assert status["errors"] == 0
    assert status["routed_writes"] >= 1
    # The dead replica's share of the second read wave failed over.
    assert status["failovers"] >= 1


def test_router_pin_falls_back_to_primary_when_replicas_lag(make_harness):
    # A stopped follower never applies the write; the pinned read must
    # fall back to the primary within the (short) pin timeout instead of
    # serving stale rows or erroring.
    async def scenario():
        harness = make_harness()
        await harness.start()
        f1, s1, _ = await harness.add_replica()
        primary_gw = QueryGateway(harness.service, replication=harness.feed)
        replica_gw = QueryGateway(s1, read_only=True, follower=f1)
        router = None
        client = None
        try:
            await primary_gw.start()
            await replica_gw.start()
            router = QueryRouter(
                f"127.0.0.1:{primary_gw.port}",
                [f"127.0.0.1:{replica_gw.port}"],
                pin_timeout=0.3,
                pin_poll_interval=0.02,
            )
            host, port = await router.start()
            client = await AsyncGatewayClient.connect(host, port)
            # Freeze the replica: stop the follower's live apply loop.
            await f1.stop()
            await client.insert(
                "cargo",
                {"code": "STALE", "desc": "frozen food", "quantity": 999999,
                 "category": "general", "collects": 1},
            )
            payload = await client.execute(
                '(SELECT {cargo.code} { } {cargo.quantity >= 999999} { } {cargo})'
            )
            codes = {row["cargo.code"] for row in payload["rows"]}
            assert "STALE" in codes
            return (
                router.status(),
                primary_gw.stats_payload()["gateway"]["requests"],
            )
        finally:
            if client is not None:
                await client.close()
            if router is not None:
                await router.stop()
            await primary_gw.stop()
            await replica_gw.stop()
            await harness.stop()

    status, primary_requests = asyncio.run(scenario())
    assert status["errors"] == 0
    assert status["failovers"] >= 1
    assert primary_requests.get("execute", 0) >= 1


def test_router_pin_expiry_with_dead_primary_is_a_stable_error(make_harness):
    # The worst case of read-your-writes: the pinned replica never
    # catches up (frozen follower) *and* the primary fallback is gone.
    # The pin must expire into a stable wire error within bounded
    # wall-clock — never a hang, never a stale read — and the router
    # connection must survive to answer the next request.
    import time

    READ = '(SELECT {cargo.code} { } {cargo.quantity >= 999999} { } {cargo})'

    async def scenario():
        harness = make_harness()
        await harness.start()
        f1, s1, _ = await harness.add_replica()
        primary_gw = QueryGateway(harness.service, replication=harness.feed)
        replica_gw = QueryGateway(s1, read_only=True, follower=f1)
        router = None
        client = None
        try:
            await primary_gw.start()
            await replica_gw.start()
            router = QueryRouter(
                f"127.0.0.1:{primary_gw.port}",
                [f"127.0.0.1:{replica_gw.port}"],
                pin_timeout=0.3,
                pin_poll_interval=0.02,
                retry_reads=1,  # keep the doomed primary retry bounded
            )
            host, port = await router.start()
            client = await AsyncGatewayClient.connect(host, port)
            # Freeze the replica (its gateway still answers
            # replica_status, so the pin poll runs its full course),
            # pin the connection with a write, then kill the primary.
            await f1.stop()
            await client.insert(
                "cargo",
                {"code": "DOOM", "desc": "frozen food", "quantity": 999999,
                 "category": "general", "collects": 1},
            )
            await primary_gw.stop()
            started = time.monotonic()
            codes = []
            for _ in range(2):  # the second read proves the session lives
                try:
                    await client.execute(READ)
                except GatewayRequestError as exc:
                    codes.append(exc.code)
            elapsed = time.monotonic() - started
            return codes, elapsed, router.status()
        finally:
            if client is not None:
                await client.close()
            if router is not None:
                await router.stop()
            await replica_gw.stop()
            await primary_gw.stop()
            await harness.stop()

    codes, elapsed, status = asyncio.run(scenario())
    # Both reads answered (no hang) with the stable backend-failure code.
    assert codes == ["internal", "internal"]
    assert elapsed < 5.0
    assert status["errors"] == 2
    assert status["stalls"] >= 1
    assert status["failovers"] >= 1
