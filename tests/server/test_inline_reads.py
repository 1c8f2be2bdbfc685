"""Which reads the gateway answers on the event loop, and which go to the pool.

An ``optimize`` or ``execute`` whose optimization is already cached is
answered on the event loop (``OptimizationService.serve_warm``); a cold
one, one that meets a writer, one with ``use_cache`` off and any read
of a self-tuning service go through
single-flight to a ``gateway-worker`` thread.  Where a read ran is read
off a spy on the service's optimize step and on the pool's ``submit``,
never off timing.
"""

import asyncio
import threading
import time

import pytest

from repro.constraints import ConstraintRepository
from repro.data import build_evaluation_constraints
from repro.engine import ObjectStore
from repro.server import AsyncGatewayClient, QueryGateway
from repro.server.protocol import decode_frame, encode_frame
from repro.service import OptimizationService

QUERY = "(SELECT {cargo.code} { } {cargo.quantity >= 0} { } {cargo})"


def _cargo(index):
    return {
        "code": f"C{index}",
        "desc": "frozen food",
        "quantity": 100 + index,
        "category": "general",
        "collects": 1,
    }


@pytest.fixture()
def service(evaluation_schema):
    """A service over its own small store: some tests write to it."""
    store = ObjectStore(evaluation_schema)
    store.insert(
        "vehicle",
        {"vehicle_no": "V0", "desc": "refrigerated truck", "class": 2, "capacity": 4000},
    )
    for index in range(3):
        store.insert("cargo", _cargo(index))
    repository = ConstraintRepository(evaluation_schema)
    repository.add_all(build_evaluation_constraints())
    service = OptimizationService(evaluation_schema, repository=repository, store=store)
    yield service
    service.close()


def _threads(service):
    """The names of the threads the service's optimize step runs on, in order."""
    names = []
    optimize = service._optimize_keyed

    def spy(*args):
        names.append(threading.current_thread().name)
        return optimize(*args)

    service._optimize_keyed = spy
    return names


def _inline(gateway):
    return gateway.stats_payload()["gateway"]["inline"]


@pytest.mark.parametrize("op", ["optimize", "execute"])
def test_warm_reads_run_on_the_loop_and_cold_reads_on_the_pool(op, service):
    threads = _threads(service)

    async def scenario():
        gateway = QueryGateway(service)
        send = getattr(AsyncGatewayClient.in_process(gateway), op)
        cold = await send(QUERY)
        warm = await send(QUERY)
        inline = _inline(gateway)
        await gateway.stop()
        return cold, warm, inline, threading.current_thread().name

    cold, warm, inline, loop_thread = asyncio.run(scenario())
    assert threads[0].startswith("gateway-worker")
    assert threads[1:] == [loop_thread]
    assert inline == 1
    if op == "execute":
        assert warm["rows"] == cold["rows"]
        assert warm["provenance"]["source"] == "result_cache"
    else:
        assert warm["optimized_query"] == cold["optimized_query"]
        assert warm["source"] == "result_cache"


def _until(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


@pytest.mark.parametrize("writer", ["holds", "waits"])
def test_a_read_meeting_a_writer_takes_the_pool_and_sees_the_write(writer, service):
    """The writer holds the store lock, or waits for it behind a reader."""
    lock = service._store_lock
    threads = _threads(service)
    entered, release = threading.Event(), threading.Event()

    def write():
        with lock.write():
            entered.set()
            if writer == "holds":
                release.wait(10)
            service.store.insert("cargo", _cargo(9))

    def read():
        with lock.read():
            entered.set()
            release.wait(10)

    async def scenario():
        gateway = QueryGateway(service)
        client = AsyncGatewayClient.in_process(gateway)
        before = await client.execute(QUERY)  # caches the optimization
        holders = [threading.Thread(target=write)]
        if writer == "waits":
            holders.insert(0, threading.Thread(target=read))
        holders[0].start()
        assert entered.wait(5)
        if writer == "waits":
            entered.clear()
            holders[1].start()
            _until(lambda: lock._writers_waiting == 1)
        pending = asyncio.ensure_future(client.execute(QUERY))
        await asyncio.sleep(0.05)
        assert not pending.done()  # waiting on a worker for the read lock
        release.set()
        after = await asyncio.wait_for(pending, 10)
        for holder in holders:
            holder.join(5)
            assert not holder.is_alive()
        inline = _inline(gateway)
        await gateway.stop()
        return before, after, inline

    before, after, inline = asyncio.run(scenario())
    assert len(after["rows"]) == len(before["rows"]) + 1
    assert {"cargo.code": "C9"} in after["rows"]
    assert inline == 0
    assert len(threads) == 2 and all(name.startswith("gateway-worker") for name in threads)


@pytest.mark.parametrize("case", ["use_cache_off", "self_tuning"])
def test_these_reads_always_take_the_pool(case, service):
    options = {"use_cache": False} if case == "use_cache_off" else {}
    if case == "self_tuning":
        service.enable_self_tuning()
    threads = _threads(service)

    async def scenario():
        gateway = QueryGateway(service)
        client = AsyncGatewayClient.in_process(gateway)
        payloads = [await client.execute(QUERY, **options) for _ in range(3)]
        inline = _inline(gateway)
        await gateway.stop()
        return payloads, inline

    payloads, inline = asyncio.run(scenario())
    assert inline == 0
    assert len(threads) == 3 and all(name.startswith("gateway-worker") for name in threads)
    assert payloads[1]["rows"] == payloads[0]["rows"] == payloads[2]["rows"]


@pytest.mark.parametrize("op", ["optimize", "execute"])
def test_a_warm_read_is_shed_when_full_and_refused_when_draining(op, service):
    async def scenario():
        gateway = QueryGateway(service, max_in_flight=1, max_waiting=0)
        frame = {"op": op, "query": QUERY}
        assert (await gateway.dispatch(dict(frame, id=0), "probe"))["ok"]  # now warm
        async with gateway.admission.slot("hog"):
            full = await gateway.dispatch(dict(frame, id=1), "probe")
        await gateway.admission.drain()
        draining = await gateway.dispatch(dict(frame, id=2), "probe")
        admission = gateway.admission.snapshot()
        inline = _inline(gateway)
        await gateway.stop()
        return full, draining, admission, inline

    full, draining, admission, inline = asyncio.run(scenario())
    assert full["error"]["code"] == "overloaded"
    assert draining["error"]["code"] == "draining"
    assert (admission.rejected_capacity, admission.rejected_draining) == (1, 1)
    assert inline == 0


def test_an_inline_failure_answers_like_the_pool_and_keeps_the_connection(service):
    threads = _threads(service)
    build_executor = service._executor

    def broken_executor(*args, **kwargs):
        executor = build_executor(*args, **kwargs)

        def explode(plan):
            raise RuntimeError("engine exploded")

        executor.execute_plan = explode
        return executor

    async def scenario():
        gateway = QueryGateway(service)
        host, port = await gateway.start()
        reader, writer = await asyncio.open_connection(host, port)

        async def ask(request_id):
            writer.write(encode_frame({"id": request_id, "op": "execute", "query": QUERY}))
            await writer.drain()
            return decode_frame(await reader.readline())

        try:
            service._executor = broken_executor
            pooled = await ask(1)  # cold, but its optimization is now cached
            inline = await ask(2)
            service._executor = build_executor
            healthy = await ask(3)
        finally:
            writer.close()
            await writer.wait_closed()
            await gateway.stop()
        return pooled, inline, healthy, threading.current_thread().name

    pooled, inline, healthy, loop_thread = asyncio.run(scenario())
    assert threads[0].startswith("gateway-worker")
    assert threads[1:] == [loop_thread, loop_thread]
    error = {"code": "internal", "message": "engine exploded"}
    assert (pooled["ok"], pooled["error"]) == (False, error)
    assert dict(inline, id=1) == pooled
    assert healthy["ok"] and healthy["id"] == 3


@pytest.mark.parametrize("op", ["optimize", "execute"])
def test_result_cache_counts_one_miss_cold_and_one_hit_warm(op, service):
    async def scenario():
        gateway = QueryGateway(service)
        send = getattr(AsyncGatewayClient.in_process(gateway), op)
        counts = [service.cache_stats()]
        for _ in range(2):
            await send(QUERY)
            counts.append(service.cache_stats())
        await gateway.stop()
        return [(after.result_misses - before.result_misses,
                 after.result_hits - before.result_hits)
                for before, after in zip(counts, counts[1:])]

    assert asyncio.run(scenario()) == [(1, 0), (0, 1)]


def test_warm_reads_over_tcp_make_no_pool_submission(service):
    submitted = []

    async def scenario():
        gateway = QueryGateway(service)
        host, port = await gateway.start()
        client = await AsyncGatewayClient.connect(host, port)
        try:
            await client.execute(QUERY)  # cold: the one submission
            submit = gateway._pool.submit

            def counted(*args, **kwargs):
                submitted.append(args)
                return submit(*args, **kwargs)

            gateway._pool.submit = counted
            payloads = await asyncio.gather(*(client.execute(QUERY) for _ in range(100)))
            stats = await client.stats()
        finally:
            await client.close()
            await gateway.stop()
        return payloads, stats

    payloads, stats = asyncio.run(scenario())
    assert submitted == []
    assert stats["gateway"]["inline"] == 100
    assert sum(stats["gateway"]["errors"].values()) == 0
    assert len({len(payload["rows"]) for payload in payloads}) == 1
