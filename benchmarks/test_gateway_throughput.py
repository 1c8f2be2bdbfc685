"""Benchmark: 16-client load against the async query gateway.

Drives the DB2 evaluation workload through a real served gateway
(vectorized engine) with the multi-client load generator and pins the
serving-layer contract:

* a 16-client run completes with **zero errors**;
* every gateway response is **byte-identical** (as sorted JSON) to a
  direct ``OptimizationService.execute`` call;
* a repeated-query lockstep workload that needs the pool (``use_cache``
  off) achieves **≥ 90 %** single-flight deduplication (15 of every 16
  identical concurrent requests share the leader's work);
* the same lockstep herd on a *cached* query starts **no** flight: every
  copy is answered on the event loop, byte-identical to direct execution.

Headline numbers — p50/p95 latency, requests/s, rows/s, dedup rate — are
persisted into ``BENCH_gateway.json`` alongside the engine/service
artifacts; CI uploads them per matrix leg.
"""

import asyncio
import json

from _artifacts import record_bench

from repro.query import format_query
from repro.server import AsyncGatewayClient, QueryGateway, run_load
from repro.service import OptimizationService

CLIENTS = 16
REQUESTS_PER_CLIENT = 12
ARTIFACT = "BENCH_gateway.json"


def _build_service(bench_setup) -> OptimizationService:
    return OptimizationService(
        bench_setup.schema,
        repository=bench_setup.repository,
        cost_model=bench_setup.cost_model,
        store=bench_setup.store,
        execution_mode="vectorized",
    )


def test_gateway_16_client_load(bench_setup):
    """16 TCP clients, mixed DB2 workload: zero errors, identical rows."""
    queries = bench_setup.queries
    texts = [format_query(query) for query in queries]

    async def scenario():
        service = _build_service(bench_setup)
        gateway = QueryGateway(service, worker_threads=4)
        host, port = await gateway.start()
        clients = [
            await AsyncGatewayClient.connect(host, port, client_id=f"load-{index}")
            for index in range(CLIENTS)
        ]
        try:
            report = await run_load(
                clients,
                texts,
                requests_per_client=REQUESTS_PER_CLIENT,
                options={"execution_mode": "vectorized"},
            )
            # Byte-identical answers: every workload query through the
            # gateway against the same query executed directly.
            for text, query in zip(texts, queries):
                payload = await clients[0].execute(
                    text, execution_mode="vectorized"
                )
                direct = service.execute(query, execution_mode="vectorized")
                assert json.dumps(payload["rows"], sort_keys=True) == json.dumps(
                    direct.execution.rows, sort_keys=True
                ), f"gateway rows diverge from direct execution for {query.name}"
            stats = await clients[0].stats()
        finally:
            for client in clients:
                await client.close()
            await gateway.stop()
        return report, stats

    report, stats = asyncio.run(scenario())

    assert report.requests == CLIENTS * REQUESTS_PER_CLIENT
    assert report.errors == 0, f"load run must be error-free: {report.error_codes}"
    assert report.rows > 0
    print()
    print(f"gateway load: {report.describe()}")

    record_bench(
        ARTIFACT,
        "gateway_load",
        {
            "clients": CLIENTS,
            "requests": report.requests,
            "errors": report.errors,
            "latency_p50_ms": report.p50 * 1000.0,
            "latency_p95_ms": report.p95 * 1000.0,
            "requests_per_s": report.requests_per_second,
            "rows_per_s": report.rows_per_second,
            "engine": "vectorized",
            "workload": "DB2",
            "admission": stats["gateway"]["admission"],
        },
    )


def test_gateway_single_flight_dedup(bench_setup):
    """16 lockstep clients repeating one uncached query: ≥90 % coalesce."""
    text = format_query(bench_setup.queries[0])

    async def scenario():
        service = _build_service(bench_setup)
        gateway = QueryGateway(service, worker_threads=4)
        await gateway.start()
        # In-process clients share the gateway's event loop, so each
        # lockstep wave of 16 identical requests deterministically elects
        # one leader and 15 followers.  ``use_cache`` off keeps every copy
        # off the event loop: identical work that needs the pool.
        clients = [
            AsyncGatewayClient.in_process(gateway, client_id=f"dedup-{index}")
            for index in range(CLIENTS)
        ]
        try:
            report = await run_load(
                clients,
                [text],
                requests_per_client=8,
                options={"execution_mode": "vectorized", "use_cache": False},
                lockstep=True,
            )
            flight = service.single_flight.snapshot()
        finally:
            await gateway.stop()
        return report, flight

    report, flight = asyncio.run(scenario())

    assert report.errors == 0
    assert report.coalesced_rate >= 0.90, (
        f"single-flight dedup too low: {report.coalesced_rate:.1%} "
        f"({report.coalesced}/{report.requests})"
    )
    print()
    print(
        f"gateway dedup: {report.coalesced_rate:.1%} of {report.requests} "
        f"requests coalesced ({flight.leaders} leaders, "
        f"{flight.followers} followers)"
    )

    record_bench(
        ARTIFACT,
        "gateway_dedup",
        {
            "clients": CLIENTS,
            "requests": report.requests,
            "errors": report.errors,
            "coalesced": report.coalesced,
            "dedup_rate": report.coalesced_rate,
            "single_flight_leaders": flight.leaders,
            "single_flight_followers": flight.followers,
            "engine": "vectorized",
            "workload": "DB2-repeated",
        },
    )


def test_gateway_warm_herd_starts_no_flight(bench_setup):
    """16 lockstep clients repeating one cached query: no flight, same rows."""
    query = bench_setup.queries[0]
    text = format_query(query)

    async def scenario():
        service = _build_service(bench_setup)
        direct = service.execute(query, execution_mode="vectorized")  # caches it
        gateway = QueryGateway(service, worker_threads=4)
        clients = [
            AsyncGatewayClient.in_process(gateway, client_id=f"warm-{index}")
            for index in range(CLIENTS)
        ]
        payloads = []
        try:
            for _ in range(8):  # lockstep waves of 16 identical requests
                payloads += await asyncio.gather(
                    *(client.execute(text, execution_mode="vectorized") for client in clients)
                )
            stats = gateway.stats_payload()
        finally:
            await gateway.stop()
        return direct, payloads, service.single_flight.snapshot(), stats

    direct, payloads, flight, stats = asyncio.run(scenario())

    assert (flight.leaders, flight.followers) == (0, 0)
    assert stats["gateway"]["inline"] == len(payloads) == CLIENTS * 8
    expected = json.dumps(direct.execution.rows, sort_keys=True)
    assert all(json.dumps(p["rows"], sort_keys=True) == expected for p in payloads)
    assert not any(payload["coalesced"] for payload in payloads)
