"""Wire-level subscription lifecycle: subscribe → diffs → unsubscribe.

Pins the serving contract of the push path: a ``subscribe`` snapshot
followed by version-ordered ``diff`` frames that fold to the fresh
result, standing plans freed by *both* ``unsubscribe`` and client
disconnect (asserted through gateway stats), rule churn surfacing as a
``resync`` frame, and malformed subscribe frames mapping to stable wire
codes without taking the session down.  Every ``rows`` on the wire is the
query's projection, so a view's diff stream is a diff of its answer.
"""

import asyncio

import pytest

from repro.constraints import ConstraintRepository
from repro.data import build_evaluation_constraints
from repro.engine import ObjectStore
from repro.query import parse_query
from repro.server import AsyncGatewayClient, GatewayRequestError, QueryGateway
from repro.service import OptimizationService
from repro.subscriptions import apply_changes

QUERY = '(SELECT {cargo.code, cargo.quantity} { } {cargo.quantity >= 30} { } {cargo})'
#: The same answer set with a pointer attribute asked for, first.
POINTER_QUERY = (
    '(SELECT {cargo.collects, cargo.code} { } {cargo.quantity >= 30} { } {cargo})'
)


@pytest.fixture()
def mutable_service(evaluation_schema):
    """A service over its own 2-shard store (never the shared fixture store)."""
    store = ObjectStore(evaluation_schema, shard_count=2)
    for i in range(4):
        store.insert(
            "cargo",
            {"code": f"C{i}", "desc": "frozen food", "quantity": 20 + 10 * i,
             "category": "general"},
        )
    repository = ConstraintRepository(evaluation_schema)
    repository.add_all(build_evaluation_constraints())
    service = OptimizationService(
        evaluation_schema, repository=repository, store=store
    )
    yield service, store
    service.close()


def _row(code, quantity):
    return {"code": code, "desc": "frozen food", "quantity": quantity,
            "category": "general"}


def test_subscribe_streams_version_ordered_diffs_over_tcp(mutable_service):
    service, _store = mutable_service

    async def scenario():
        gateway = QueryGateway(service)
        host, port = await gateway.start()
        client = await AsyncGatewayClient.connect(host, port)
        snapshot = await client.subscribe(QUERY)
        sid = snapshot["subscription"]
        # One matching insert, one filtered out by the compiled predicate
        # kernel (quantity < 30 can never join the result), one matching.
        await client.insert("cargo", _row("PUSH1", 77))
        await client.insert("cargo", _row("QUIET", 5))
        await client.insert("cargo", _row("PUSH2", 44))
        frames = [await client.next_push(sid, timeout=5) for _ in range(2)]
        fresh = await client.execute(QUERY)
        stats = await client.stats()
        await client.close()
        await gateway.stop()
        return snapshot, frames, fresh, stats

    snapshot, frames, fresh, stats = asyncio.run(scenario())
    assert snapshot["row_count"] == len(snapshot["rows"]) == 3
    assert all(frame["push"] == "diff" for frame in frames)
    assert all(frame["subscription"] == snapshot["subscription"] for frame in frames)
    # Strictly increasing versions, all past the snapshot's.
    versions = [frame["version"] for frame in frames]
    assert versions == sorted(versions) and len(set(versions)) == len(versions)
    assert all(version > snapshot["version"] for version in versions)
    rows = snapshot["rows"]
    for frame in frames:
        rows = apply_changes(rows, frame["changes"])
    assert rows == fresh["rows"]
    codes = {row["cargo.code"] for row in rows}
    assert {"PUSH1", "PUSH2"} <= codes and "QUIET" not in codes
    # The filtered insert produced no frame; the view counted it.
    subs = stats["subscriptions"]
    assert subs["diffs"] == 2
    assert subs["views"][0]["filtered"] >= 1


def test_unsubscribe_frees_the_standing_plan(mutable_service):
    service, _store = mutable_service

    async def scenario():
        gateway = QueryGateway(service)
        client = AsyncGatewayClient.in_process(gateway)
        snapshot = await client.subscribe(QUERY)
        during = await client.stats()
        dropped = await client.unsubscribe(snapshot["subscription"])
        after = await client.stats()
        # A mutation after unsubscribe reaches no consumer.
        await client.insert("cargo", _row("LATE", 99))
        with pytest.raises(asyncio.TimeoutError):
            await client.next_push(snapshot["subscription"], timeout=0.2)
        await gateway.stop()
        return during, dropped, after

    during, dropped, after = asyncio.run(scenario())
    assert during["subscriptions"]["active"] == 1
    assert during["subscriptions"]["channels"] == 1
    assert dropped["active"] == 0
    assert after["subscriptions"]["active"] == 0
    assert after["subscriptions"]["channels"] == 0
    assert after["subscriptions"]["created"] == 1
    assert after["subscriptions"]["closed"] == 1


def test_client_disconnect_frees_the_standing_plan(mutable_service):
    service, _store = mutable_service

    async def scenario():
        gateway = QueryGateway(service)
        host, port = await gateway.start()
        client = await AsyncGatewayClient.connect(host, port)
        await client.subscribe(QUERY)
        before = gateway.stats_payload()["subscriptions"]
        await client.close()
        # The session close runs on the server loop; poll briefly.
        for _ in range(100):
            after = gateway.stats_payload()["subscriptions"]
            if after["active"] == 0:
                break
            await asyncio.sleep(0.02)
        await gateway.stop()
        return before, after

    before, after = asyncio.run(scenario())
    assert before["active"] == 1
    assert after["active"] == 0
    assert after["channels"] == 0
    assert after["closed"] == 1


def test_rule_churn_pushes_a_resync_frame(mutable_service):
    service, _store = mutable_service
    service.enable_dynamic_rules(class_names=["cargo"])

    async def scenario():
        gateway = QueryGateway(service)
        client = AsyncGatewayClient.in_process(gateway)
        snapshot = await client.subscribe(QUERY)
        sid = snapshot["subscription"]
        # Far outside every observed bound: the cargo rules re-derive,
        # which must resync (re-optimize) rather than diff.
        await client.insert("cargo", _row("HUGE", 10_000))
        frame = await client.next_push(sid, timeout=5)
        fresh = await client.execute(QUERY)
        await gateway.stop()
        return frame, fresh

    frame, fresh = asyncio.run(scenario())
    assert frame["push"] == "resync"
    assert frame["reason"] == "rules_changed"
    assert frame["rows"] == fresh["rows"]
    assert any(row["cargo.code"] == "HUGE" for row in frame["rows"])


def test_malformed_subscribe_frames_keep_the_session_alive(mutable_service):
    service, _store = mutable_service

    async def scenario():
        gateway = QueryGateway(service, max_subscriptions=1)
        host, port = await gateway.start()
        client = await AsyncGatewayClient.connect(host, port)
        outcomes = {}
        for label, frame in [
            ("missing_query", {"op": "subscribe"}),
            ("bad_query", {"op": "subscribe", "query": "(SELECT {junk"}),
            ("missing_id", {"op": "unsubscribe"}),
            ("empty_id", {"op": "unsubscribe", "subscription": ""}),
            ("unknown_id", {"op": "unsubscribe", "subscription": "sub-404"}),
        ]:
            try:
                await client.request(dict(frame))
            except GatewayRequestError as exc:
                outcomes[label] = exc.code
        snapshot = await client.subscribe(QUERY)
        try:
            await client.subscribe(QUERY)
        except GatewayRequestError as exc:
            outcomes["over_limit"] = exc.code
        # None of the failures took the connection down.
        rows = await client.execute(QUERY)
        stats = await client.stats()
        await client.unsubscribe(snapshot["subscription"])
        await client.close()
        await gateway.stop()
        return outcomes, rows, stats

    outcomes, rows, stats = asyncio.run(scenario())
    assert outcomes == {
        "missing_query": "protocol_error",
        "bad_query": "protocol_error",
        "missing_id": "protocol_error",
        "empty_id": "protocol_error",
        "unknown_id": "subscription_unknown",
        "over_limit": "subscription_limit",
    }
    assert rows["row_count"] > 0
    assert stats["subscriptions"]["active"] == 1


def _key_lists(rows):
    return {tuple(row) for row in rows}


def test_wire_rows_carry_exactly_the_projection(mutable_service):
    service, store = mutable_service
    store.update("cargo", store.instances("cargo")[-1].oid, {"collects": 7})
    service.enable_dynamic_rules(class_names=["cargo"])

    async def scenario():
        gateway = QueryGateway(service)
        client = AsyncGatewayClient.in_process(gateway)
        plain = await client.execute(QUERY)
        pointer = await client.execute(POINTER_QUERY)
        batch = await client.execute_batch([QUERY, POINTER_QUERY])
        snapshot = await client.subscribe(POINTER_QUERY)
        # Moves the cargo rules, so the view resyncs with a full row list.
        await client.insert("cargo", _row("HUGE", 10_000))
        frame = await client.next_push(snapshot["subscription"], timeout=5)
        await gateway.stop()
        return plain, pointer, batch, snapshot, frame

    plain, pointer, batch, snapshot, frame = asyncio.run(scenario())
    assert frame["push"] == "resync"
    plain_keys = {("cargo.code", "cargo.quantity")}
    pointer_keys = {("cargo.collects", "cargo.code")}
    assert _key_lists(plain["rows"]) == plain_keys
    assert _key_lists(batch["results"][0]["rows"]) == plain_keys
    for rows in (
        pointer["rows"],
        batch["results"][1]["rows"],
        snapshot["rows"],
        frame["rows"],
    ):
        assert _key_lists(rows) == pointer_keys
    assert 7 in [row["cargo.collects"] for row in pointer["rows"]]
    assert plain["row_count"] == pointer["row_count"] == 3


@pytest.mark.parametrize("engine", ["rowwise", "vectorized"])
def test_view_diffs_are_diffs_of_the_answer(mutable_service, engine):
    service, store = mutable_service
    registry = service.subscription_registry()
    frames = []
    snapshot = registry.subscribe(
        parse_query(QUERY),
        options={"execution_mode": engine},
        emit=frames.append,
    )
    in_view = store.instances("cargo")[-1].oid  # quantity 50: in the answer

    # Unprojected and unfiltered: the row is re-read, the answer is not moved.
    # (The write itself pumps the views; a second pump finds nothing to do.)
    service.mutate("update", "cargo", oid=in_view, values={"category": "moved"})
    assert registry.stats()["diffs"] == 0
    assert registry.pump() == {"views": 1, "diffs": 0, "resyncs": 0, "skipped": 1}
    assert frames == []

    service.mutate("update", "cargo", oid=in_view, values={"quantity": 51})
    assert registry.stats()["diffs"] == 1
    (frame,) = frames
    (change,) = frame["changes"]
    assert change["kind"] == "changed"
    assert change["row"] == {"cargo.code": "C3", "cargo.quantity": 51}
    folded = apply_changes(snapshot["rows"], frame["changes"])
    assert folded == service.execute(parse_query(QUERY)).rows
