"""What the stack does with each wire op, and the wire surface's registries.

Each op's facts are declared once, in ``protocol.OPS``; the per-op test
below pins, for every op, the behaviour those facts drive — where the
router sends it, whether it pins read-your-writes, whether a reconnecting
client resends it, whether a read-only replica refuses it, and whether it
is answered while admission is full or draining — as literal sets, so a
wrong table entry fails here instead of on a client.
"""

import ast
import asyncio
import importlib
import pkgutil
import threading
from pathlib import Path

import pytest

import repro
from repro.constraints import ConstraintRepository
from repro.data import build_evaluation_constraints
from repro.engine import ObjectStore
from repro.replication.router import QueryRouter, _ConnectionState
from repro.server import AsyncGatewayClient, GatewayError, QueryGateway
from repro.server.protocol import (
    OPS,
    PUSH_KINDS,
    decode_frame,
    diff_frame,
    encode_frame,
    ok_response,
    resync_frame,
)
from repro.service import OptimizationService

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
OPERATIONS_DOC = PACKAGE_ROOT.parents[1] / "docs" / "operations.md"

QUERY = "(SELECT {cargo.code} { } {cargo.quantity >= 0} { } {cargo})"
RULE = {"name": "probe_rule", "consequent": "cargo.quantity >= 0", "classes": ["cargo"]}

#: One well-formed frame per op.
FRAMES = {
    "optimize": {"query": QUERY},
    "execute": {"query": QUERY},
    "execute_batch": {"queries": [QUERY]},
    "stats": {},
    "rules": {"action": "add", "rule": RULE},
    "insert": {"class": "cargo", "values": {"code": "P"}},
    "insert_many": {"class": "cargo", "rows": [{"code": "P"}]},
    "update": {"class": "cargo", "oid": 1, "values": {"quantity": 7}},
    "delete": {"class": "cargo", "oid": 1},
    "subscribe_wal": {},
    "replica_status": {},
    "backup": {},
    "subscribe": {"query": QUERY},
    "unsubscribe": {"subscription": "sub-0"},
}

SENT_TO_REPLICA = {"optimize", "execute", "execute_batch"}
PINS_READ_YOUR_WRITES = {"insert", "insert_many", "update", "delete"}
RESENT_AFTER_DROP = {
    "optimize", "execute", "execute_batch", "stats", "replica_status", "subscribe_wal",
}
REFUSED_READ_ONLY = {"rules", "insert", "insert_many", "update", "delete"}
ANSWERED_WHEN_FULL = {"stats", "replica_status", "subscribe_wal"}


@pytest.fixture()
def private_service(evaluation_schema):
    """A service over its own small store: the frames above may write."""
    store = ObjectStore(evaluation_schema)
    store.insert(
        "vehicle",
        {"vehicle_no": "V0", "desc": "refrigerated truck", "class": 2, "capacity": 4000},
    )
    for i in range(3):
        store.insert(
            "cargo",
            {"code": f"C{i}", "desc": "frozen food", "quantity": 100 + i,
             "category": "general", "collects": 1},
        )
    repository = ConstraintRepository(evaluation_schema)
    repository.add_all(build_evaluation_constraints())
    service = OptimizationService(evaluation_schema, repository=repository, store=store)
    yield service
    service.close()


def _code(response):
    return None if response["ok"] else response["error"]["code"]


async def _route(service, frame):
    """Which gateway the router sends ``frame`` to, and whether it pinned."""
    gateways = {"primary": QueryGateway(service), "replica": QueryGateway(service)}
    router = QueryRouter("primary:1", ["replica:1"])
    router._primary = AsyncGatewayClient.in_process(gateways["primary"])
    router._backends["replica:1"] = AsyncGatewayClient.in_process(gateways["replica"])
    state = _ConnectionState()
    await router._handle_line(encode_frame(dict(frame, id=1)), state)
    reached = [
        name
        for name, gateway in gateways.items()
        if gateway.stats_payload()["gateway"]["requests"].get(frame["op"])
    ]
    for gateway in gateways.values():
        await gateway.stop()
    return reached, state.min_version > 0


async def _resent(frame):
    """Whether a ``retry_reads`` client resends ``frame`` after a drop.

    The server hangs up on the first connection without answering and
    answers on the next one.
    """
    received = []

    async def serve(reader, writer):
        line = await reader.readline()
        received.append(line)
        if len(received) > 1:
            writer.write(encode_frame(ok_response(decode_frame(line)["id"], {})))
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client = await AsyncGatewayClient.connect("127.0.0.1", port, retry_reads=1)
    try:
        await client.request(frame)
    except (GatewayError, ConnectionError, OSError):
        pass
    finally:
        await client.close()
        server.close()
        await server.wait_closed()
    return len(received) == 2


async def _codes(service, frame):
    """``frame``'s error code on a read-only, a full and a draining gateway."""
    read_only = QueryGateway(service, read_only=True)
    refused = _code(await read_only.dispatch(dict(frame, id=1)))
    await read_only.stop()
    gateway = QueryGateway(service, max_in_flight=1, max_waiting=0)
    async with gateway.admission.slot("hog"):
        full = _code(await gateway.dispatch(dict(frame, id=2), "probe"))
    await gateway.admission.drain()
    draining = _code(await gateway.dispatch(dict(frame, id=3), "probe"))
    await gateway.stop()
    return refused, full, draining


@pytest.mark.parametrize("op", list(OPS))
def test_per_op_behaviour(op, private_service):
    frame = dict(FRAMES[op], op=op)
    reached, pinned = asyncio.run(_route(private_service, frame))
    assert reached == ["replica" if op in SENT_TO_REPLICA else "primary"]
    assert pinned == (op in PINS_READ_YOUR_WRITES)
    assert asyncio.run(_resent(frame)) == (op in RESENT_AFTER_DROP)
    refused, full, draining = asyncio.run(_codes(private_service, frame))
    assert (refused == "read_only") == (op in REFUSED_READ_ONLY)
    assert (full != "overloaded") == (op in ANSWERED_WHEN_FULL)
    assert (draining != "draining") == (op in ANSWERED_WHEN_FULL)


def test_an_op_without_a_handler_fails_gateway_construction(monkeypatch, private_service):
    from repro.server.protocol import OpSpec

    monkeypatch.setitem(OPS, "explain", OpSpec("explain"))
    with pytest.raises(AttributeError, match="_serve_explain"):
        QueryGateway(private_service)


def test_rules_wait_for_an_execute_holding_the_read_lock(private_service):
    """A rule change cannot land between an execute's optimize and execute."""
    service = private_service
    inside, release = threading.Event(), threading.Event()
    build_executor = service._executor

    def blocking_executor(*args, **kwargs):
        executor = build_executor(*args, **kwargs)
        run = executor.execute

        def execute(query):
            inside.set()
            release.wait(10)
            return run(query)

        executor.execute = execute
        return executor

    service._executor = blocking_executor

    async def scenario():
        gateway = QueryGateway(service)
        client = AsyncGatewayClient.in_process(gateway)
        execute = asyncio.ensure_future(client.execute(QUERY))
        try:
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, inside.wait, 10)
            before = service.repository.generation
            added = asyncio.ensure_future(client.add_rule(RULE))
            await asyncio.sleep(0.2)
            during = service.repository.generation
        finally:
            release.set()
        await execute
        after = (await added)["generation"]
        await gateway.stop()
        return before, during, after

    before, during, after = asyncio.run(scenario())
    assert during == before
    assert after > before


def test_wire_registries_are_whole_and_documented():
    """Every error class sits in errors.py with its own code; every op,
    code and push kind is in docs/operations.md; push frames are built
    only in protocol.py."""
    for package in ("repro.server", "repro.replication", "repro.subscriptions"):
        path = importlib.import_module(package).__path__
        for info in pkgutil.iter_modules(path, package + "."):
            importlib.import_module(info.name)
    classes, stack = [], [GatewayError]
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    assert {cls.__module__ for cls in classes} == {"repro.server.errors"}
    codes = [cls.code for cls in classes if "code" in vars(cls)]
    assert len(codes) == len(set(codes)), codes

    doc = OPERATIONS_DOC.read_text(encoding="utf-8")
    undocumented = [name for name in [*OPS, *codes, *PUSH_KINDS] if f"`{name}`" not in doc]
    assert undocumented == []

    builders = set()
    for path in PACKAGE_ROOT.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "push" for key in node.keys
            ):
                builders.add(path.relative_to(PACKAGE_ROOT).as_posix())
    assert builders == {"server/protocol.py"}
    built = {
        diff_frame("sub-1", 1, [])["push"],
        resync_frame("sub-1", 1, [], "rules_changed")["push"],
    }
    assert built == set(PUSH_KINDS)
