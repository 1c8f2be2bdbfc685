"""Mutation RPCs end to end: gateway → service → (sharded) store.

Pins the acceptance contract of the live write path: an ``execute``
immediately after a mutation RPC observes the post-write rows (no stale
cache or stale single-flight hit), failures map to stable wire codes, and
the reported invalidation footprint (shards, versions, rule refreshes) is
truthful.
"""

import asyncio

import pytest

from repro.constraints import ConstraintRepository
from repro.data import build_evaluation_constraints
from repro.engine import ObjectStore
from repro.server import AsyncGatewayClient, GatewayRequestError, QueryGateway
from repro.service import OptimizationService

QUERY = '(SELECT {cargo.code, cargo.quantity} { } {cargo.quantity >= 0} { } {cargo})'
JOIN_QUERY = (
    '(SELECT {cargo.code, vehicle.desc} { } '
    '{vehicle.desc = "refrigerated truck"} {collects} {cargo, vehicle})'
)


@pytest.fixture()
def mutable_service(evaluation_schema):
    """A service over its own 2-shard store (never the shared fixture store)."""
    store = ObjectStore(evaluation_schema, shard_count=2)
    store.insert(
        "vehicle",
        {"vehicle_no": "V0", "desc": "refrigerated truck", "class": 2,
         "capacity": 4000},
    )
    for i in range(6):
        store.insert(
            "cargo",
            {"code": f"C{i}", "desc": "frozen food", "quantity": 100 + i,
             "category": "general", "collects": 1},
        )
    repository = ConstraintRepository(evaluation_schema)
    repository.add_all(build_evaluation_constraints())
    service = OptimizationService(
        evaluation_schema, repository=repository, store=store
    )
    yield service, store
    service.close()


def test_execute_after_mutation_sees_post_write_rows(mutable_service):
    service, store = mutable_service

    async def scenario():
        gateway = QueryGateway(service)
        client = AsyncGatewayClient.in_process(gateway)
        before = await client.execute(QUERY)
        inserted = await client.insert(
            "cargo",
            {"code": "LIVE", "desc": "frozen food", "quantity": 999,
             "category": "general", "collects": 1},
        )
        after = await client.execute(QUERY)
        joined = await client.execute(JOIN_QUERY)
        await gateway.stop()
        return before, inserted, after, joined

    before, inserted, after, joined = asyncio.run(scenario())
    assert after["row_count"] == before["row_count"] + 1
    assert not after["coalesced"]
    codes = {row["cargo.code"] for row in after["rows"]}
    assert "LIVE" in codes
    assert any(row["cargo.code"] == "LIVE" for row in joined["rows"])
    # The reported footprint matches the store: one write, one shard moved.
    assert inserted["applied"] == 1
    assert inserted["oids"] == [store.count("cargo")]  # OIDs are per-class
    assert inserted["shards"] == [store.shard_of(inserted["oids"][0])]
    assert inserted["store_version"] == store.version


def test_update_and_delete_round_trip(mutable_service):
    service, store = mutable_service

    async def scenario():
        gateway = QueryGateway(service)
        client = AsyncGatewayClient.in_process(gateway)
        updated = await client.update("cargo", 3, {"quantity": 42})
        rows = (await client.execute(QUERY))["rows"]
        deleted = await client.delete("cargo", 3)
        remaining = (await client.execute(QUERY))["rows"]
        await gateway.stop()
        return updated, rows, deleted, remaining

    updated, rows, deleted, remaining = asyncio.run(scenario())
    assert updated["oids"] == [3] and deleted["oids"] == [3]
    assert any(row["cargo.quantity"] == 42 for row in rows)
    assert all(row["cargo.code"] != "C2" for row in remaining)
    assert store.get("cargo", 3) is None


def test_insert_many_applies_in_order(mutable_service):
    service, store = mutable_service

    async def scenario():
        gateway = QueryGateway(service)
        client = AsyncGatewayClient.in_process(gateway)
        payload = await client.insert_many(
            "cargo",
            [
                {"code": "B0", "desc": "textiles", "quantity": 1,
                 "category": "general"},
                {"code": "B1", "desc": "textiles", "quantity": 2,
                 "category": "general"},
                {"code": "B2", "desc": "textiles", "quantity": 3,
                 "category": "general"},
            ],
        )
        await gateway.stop()
        return payload

    payload = asyncio.run(scenario())
    assert payload["applied"] == 3
    assert payload["oids"] == sorted(payload["oids"])
    assert sorted(payload["shard_versions"]) == sorted(store.shard_versions())
    assert [store.get("cargo", oid).values["code"] for oid in payload["oids"]] == [
        "B0", "B1", "B2",
    ]


def test_mutation_error_codes_are_stable(mutable_service):
    service, _store = mutable_service

    async def scenario():
        gateway = QueryGateway(service)
        client = AsyncGatewayClient.in_process(gateway)
        outcomes = {}
        for label, frame in [
            ("unknown_class", {"op": "insert", "class": "warehouse", "values": {}}),
            ("unknown_attr", {"op": "insert", "class": "cargo",
                              "values": {"colour": "red"}}),
            ("bad_oid", {"op": "delete", "class": "cargo", "oid": "seven"}),
            ("missing_rows", {"op": "insert_many", "class": "cargo"}),
            ("unknown_oid", {"op": "delete", "class": "cargo", "oid": 10_000}),
            ("bad_pointer", {"op": "insert", "class": "cargo",
                             "values": {"collects": "not an oid"}}),
            ("bad_pointer_update", {"op": "update", "class": "cargo", "oid": 1,
                                    "values": {"collects": [1, "2"]}}),
        ]:
            try:
                await client.request(dict(frame))
            except GatewayRequestError as exc:
                outcomes[label] = exc.code
        # A mutation error never takes the session down: reads still work,
        # and a refused pointer never reaches a later traversal of its class.
        rows = await client.execute(QUERY)
        joined = await client.execute(JOIN_QUERY)
        await gateway.stop()
        return outcomes, rows, joined

    outcomes, rows, joined = asyncio.run(scenario())
    assert joined["row_count"] == 6
    assert outcomes == {
        "unknown_class": "protocol_error",
        "unknown_attr": "protocol_error",
        "bad_oid": "protocol_error",
        "missing_rows": "protocol_error",
        "unknown_oid": "mutation_error",
        "bad_pointer": "mutation_error",
        "bad_pointer_update": "mutation_error",
    }
    assert rows["row_count"] > 0


def test_mutation_refreshes_dynamic_rules_per_class(mutable_service):
    service, _store = mutable_service
    service.enable_dynamic_rules()

    async def scenario():
        gateway = QueryGateway(service)
        client = AsyncGatewayClient.in_process(gateway)
        # Outside every observed bound: the cargo rules must be re-derived.
        loud = await client.insert(
            "cargo",
            {"code": "HUGE", "desc": "frozen food", "quantity": 10_000,
             "category": "general"},
        )
        stats = await client.stats()
        await gateway.stop()
        return loud, stats

    loud, stats = asyncio.run(scenario())
    assert loud["rules_refreshed"] == 1
    assert loud["rules_changed"] is True
    assert loud["generation"] == stats["service"]["repository"]["generation"]
    assert stats["service"]["mutations_applied"] == 1


def test_mutations_over_tcp(mutable_service):
    service, _store = mutable_service

    async def scenario():
        gateway = QueryGateway(service)
        host, port = await gateway.start()
        client = await AsyncGatewayClient.connect(host, port)
        inserted = await client.insert(
            "cargo",
            {"code": "TCP", "desc": "textiles", "quantity": 7,
             "category": "general"},
        )
        after = await client.execute(QUERY)
        await client.close()
        await gateway.stop()
        return inserted, after

    inserted, after = asyncio.run(scenario())
    assert inserted["applied"] == 1
    assert any(row["cargo.code"] == "TCP" for row in after["rows"])


def test_mixed_read_write_load_is_error_free(mutable_service):
    """Concurrent reads and writes through the gateway: no errors, no
    torn reads — every response is either pre- or post-some-write state."""
    from repro.server import MutationMix, run_load

    service, store = mutable_service
    before = store.count("cargo")

    async def scenario():
        gateway = QueryGateway(service, worker_threads=4)
        host, port = await gateway.start()
        clients = [
            await AsyncGatewayClient.connect(host, port, client_id=f"c{i}")
            for i in range(4)
        ]
        try:
            report = await run_load(
                clients,
                [QUERY, JOIN_QUERY],
                requests_per_client=12,
                mutations=MutationMix(
                    every=4,
                    class_name="cargo",
                    values={"code": "w", "desc": "textiles", "quantity": 1,
                            "category": "general"},
                    unique_attributes=("code",),
                ),
            )
        finally:
            for client in clients:
                await client.close()
            await gateway.stop()
        return report

    report = asyncio.run(scenario())
    assert report.errors == 0, report.error_codes
    assert report.requests == 48
    assert report.mutations == 12
    assert store.count("cargo") == before + 12
    assert report.as_dict()["mutations"] == 12
