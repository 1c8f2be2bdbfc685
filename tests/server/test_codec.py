"""The wire codec, by direction, and the write gate that keeps replies exact.

Replies and push frames go out through ``encode_frame`` (``orjson``) and
come back through ``decode_reply``; requests keep stdlib ``json`` at both
ends.  The parity test drives every op of ``OPS`` through a gateway wired
the way ``repro serve --data-dir --replicate-on`` wires one, on the
``gateway_read`` query set (DB4, the first 40 generated queries), and
checks that every frame it answers decodes to what the stdlib codec would
have carried, in one line, with row keys in projection-list order.  The
gate tests send what that codec cannot carry exactly and expect the store
to refuse it before anything is written.
"""

import asyncio
import itertools
import json
import math
from collections import defaultdict

import pytest

from repro.constraints import ConstraintRepository
from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.durability import DurabilityManager, recover
from repro.durability.wal import WriteAheadLog
from repro.engine import ObjectStore, StorageError
from repro.query import format_query, parse_query
from repro.replication import ReplicationFeed
from repro.server import AsyncGatewayClient, GatewayRequestError, QueryGateway
from repro.server.protocol import OPS, decode_reply, encode_frame, ok_response
from repro.service import OptimizationService

#: A standing view whose projection list is not in sorted order.
SUBSCRIBED = "(SELECT {cargo.quantity, cargo.code} { } {cargo.quantity >= 0} { } {cargo})"
RULE = {"name": "probe_rule", "consequent": "cargo.quantity >= 0", "classes": ["cargo"]}

#: Values the reply codec cannot carry exactly, by the attribute they are
#: written to (a string to a string attribute, a number to a numeric one).
UNCARRIABLE = {
    "Infinity": ("quantity", math.inf),
    "-Infinity": ("quantity", -math.inf),
    "2**64": ("quantity", 2**64),
    "-2**63-1": ("quantity", -(2**63) - 1),
    "lone-surrogate": ("desc", "\ud800"),
}


def _service(setup, store=None):
    repository = ConstraintRepository(setup.schema)
    repository.add_all(setup.constraints)
    return OptimizationService(
        setup.schema,
        repository=repository,
        cost_model=setup.cost_model,
        store=setup.store if store is None else store,
    )


class _Pushes:
    """A subscriber that keeps the push frames it is handed."""

    def __init__(self):
        self.frames = []

    async def push_frame(self, frame):
        self.frames.append(frame)


def _keys(text):
    """The row keys a query's answer carries, in order."""
    return list(dict.fromkeys(parse_query(text).projections))


async def _serve_every_op(service, feed, texts):
    """``{label: [(frame, rows_of), ...]}`` for every op, push kind and error.

    ``rows_of(frame)`` lists ``(answer rows, their keys in order)`` for
    each answer the frame carries.
    """
    await feed.start()
    gateway = QueryGateway(service, replication=feed)
    pushes = _Pushes()
    frames = defaultdict(list)
    ids = itertools.count(1)

    async def send(rows_of=lambda result: [], **request):
        """Dispatch one request; keep its reply and where its rows are."""
        reply = await gateway.dispatch(dict(request, id=next(ids)), subscriber=pushes)
        label = request["op"] if reply["ok"] else "error"
        frames[label].append((reply, lambda frame: rows_of(frame.get("result"))))
        return reply

    try:
        for text in texts:
            await send(op="optimize", query=text)
            await send(
                op="execute",
                query=text,
                rows_of=lambda result, t=text: [(result["rows"], _keys(t))],
            )
        await send(
            op="execute_batch",
            queries=texts,
            rows_of=lambda result: [
                (payload["rows"], _keys(text)) for payload, text in zip(result["results"], texts)
            ],
        )
        subscribed = await send(
            op="subscribe",
            query=SUBSCRIBED,
            rows_of=lambda result: [(result["rows"], _keys(SUBSCRIBED))],
        )
        inserted = await send(
            op="insert", **{"class": "cargo"}, values={"code": "W1", "quantity": 5}
        )
        oid = inserted["result"]["oids"][0]
        await send(
            op="insert_many",
            **{"class": "cargo", "rows": [{"code": "W2", "quantity": 6}, {"code": "W3"}]},
        )
        await send(op="update", **{"class": "cargo"}, oid=oid, values={"quantity": 9})
        await send(op="delete", **{"class": "cargo"}, oid=oid)
        await send(op="rules", action="add", rule=RULE)
        await send(op="rules", action="remove", name=RULE["name"])
        for op in ("stats", "replica_status", "subscribe_wal", "backup"):
            await send(op=op)
        await send(op="unsubscribe", subscription=subscribed["result"]["subscription"])
        # Error frames: a protocol error, a refused write, an unknown view.
        await send(op="nuke")
        await send(op="insert", **{"class": "cargo"}, values={"quantity": math.inf})
        await send(op="unsubscribe", subscription="sub-unknown")
    finally:
        await gateway.stop()
        await feed.stop()
    for frame in pushes.frames:
        frames[frame["push"]].append((frame, _pushed_rows))
    return frames


def _pushed_rows(frame):
    if frame["push"] == "resync":
        return [(frame["rows"], _keys(SUBSCRIBED))]
    rows = [change["row"] for change in frame["changes"] if "row" in change]
    return [(rows, _keys(SUBSCRIBED))]


@pytest.fixture(scope="module")
def served_frames(tmp_path_factory):
    setup = build_evaluation_setup(TABLE_4_1_SPECS["DB4"], query_count=40)
    texts = list(dict.fromkeys(format_query(query) for query in setup.queries))
    manager = DurabilityManager(str(tmp_path_factory.mktemp("codec")), fsync_policy="off")
    store, _ = manager.open(setup.store)
    service = _service(setup, store)
    service.attach_durability(manager)
    feed = ReplicationFeed(service)
    try:
        yield asyncio.run(_serve_every_op(service, feed, texts))
    finally:
        service.close()
        manager.close()


@pytest.mark.parametrize("label", [*OPS, "diff", "resync", "error"])
def test_every_reply_decodes_to_what_the_stdlib_would_carry(served_frames, label):
    cases = served_frames[label]
    assert cases, f"no {label} frame was served"
    answers = 0
    for frame, rows_of in cases:
        line = encode_frame(frame)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        decoded = decode_reply(line)
        assert decoded == json.loads(json.dumps(frame))
        # The engine built each row in projection-list order; the wire keeps it.
        for answer, keys in rows_of(decoded):
            assert all(list(row) == keys for row in answer)
            answers += len(answer)
    if label in ("execute", "execute_batch", "subscribe", "diff", "resync"):
        assert answers > 0


def test_a_reply_that_cannot_be_encoded_answers_its_request(build_service, harness):
    """A set in the stats payload: an internal error for that id, and the
    connection keeps serving."""

    async def scenario():
        async with harness(build_service()) as gateway:
            honest = gateway.stats_payload
            gateway.stats_payload = lambda: dict(honest(), extra={1, 2})
            client = await AsyncGatewayClient.connect(*gateway.address)
            try:
                with pytest.raises(GatewayRequestError) as refused:
                    await asyncio.wait_for(client.stats(), 10)
                status = await asyncio.wait_for(client.request({"op": "replica_status"}), 10)
            finally:
                await client.close()
        return refused.value.code, status

    code, status = asyncio.run(scenario())
    assert code == "internal"
    assert status["role"] == "standalone"
    # The stdlib reads any integer id a client sends; one beyond 64 bits
    # cannot be echoed, so its error frame answers with a null id.
    reply = decode_reply(encode_frame(ok_response(2**64, {"rows": []})))
    assert reply["id"] is None and reply["error"]["code"] == "internal"


@pytest.fixture()
def private_setup():
    """DB1 with its own store: a write that should be refused may not be."""
    return build_evaluation_setup(TABLE_4_1_SPECS["DB1"], query_count=1)


@pytest.mark.parametrize("name", sorted(UNCARRIABLE))
def test_the_wire_refuses_a_value_no_reply_can_carry(private_setup, harness, name):
    attribute, value = UNCARRIABLE[name]
    store = private_setup.store
    version, oid = store.version, store.instances("cargo")[0].oid

    async def scenario():
        async with harness(_service(private_setup)) as gateway:
            client = await AsyncGatewayClient.connect(*gateway.address)
            codes = []
            try:
                for write in (
                    client.insert("cargo", {"code": "X", attribute: value}),
                    client.insert_many("cargo", [{"code": "Y"}, {attribute: value}]),
                    client.update("cargo", oid, {attribute: value}),
                ):
                    try:
                        await asyncio.wait_for(write, 10)
                    except GatewayRequestError as exc:
                        codes.append(exc.code)
            finally:
                await client.close()
        return codes

    assert asyncio.run(scenario()) == ["mutation_error"] * 3
    assert store.version == version


@pytest.mark.parametrize("name", sorted(UNCARRIABLE))
def test_a_replayed_wal_record_or_snapshot_row_it_cannot_carry_is_refused(
    tmp_path, private_setup, name
):
    attribute, value = UNCARRIABLE[name]
    schema = private_setup.schema
    wal = WriteAheadLog(str(tmp_path / "wal"), shard_count=1, base_version=0)
    record = {"seq": 1, "op": "insert", "class": "cargo", "oid": 1, "values": {attribute: value}}
    wal.append(0, record)
    wal.commit()
    wal.close()
    with pytest.raises(StorageError, match="cargo#1"):
        recover(str(tmp_path), schema)
    header = ObjectStore(schema).snapshot_header()
    with pytest.raises(StorageError, match="cargo#1"):
        ObjectStore.restore(schema, header, [("cargo", 1, {attribute: value})])


def test_a_wrong_typed_value_no_longer_breaks_every_later_read(private_setup, harness):
    """A string in the non-indexed numeric ``cargo.quantity`` used to be
    stored, after which every optimize and execute answered ``internal``."""
    vehicles = "(SELECT {vehicle.vehicle_no} { } {vehicle.class >= 0} { } {vehicle})"

    async def scenario():
        async with harness(_service(private_setup)) as gateway:
            client = await AsyncGatewayClient.connect(*gateway.address)
            try:
                with pytest.raises(GatewayRequestError) as refused:
                    await client.insert("cargo", {"code": "L", "quantity": "lots"})
                answer = await asyncio.wait_for(client.execute(vehicles), 10)
            finally:
                await client.close()
        return refused.value.code, answer

    code, answer = asyncio.run(scenario())
    assert code == "mutation_error"
    assert answer["row_count"] == len(answer["rows"]) > 0
