"""End-to-end tests of the gateway's RPCs, dedup and admission control."""

import asyncio
import json

import pytest

from repro.server import AsyncGatewayClient, GatewayRequestError

pytestmark = pytest.mark.usefixtures("small_setup")


def test_optimize_rpc_in_process(build_service, workload_texts, harness):
    async def scenario():
        service = build_service()
        async with harness(service) as gateway:
            client = AsyncGatewayClient.in_process(gateway)
            payload = await client.optimize(workload_texts[0])
            assert payload["source"] == "computed"
            assert "optimized_query" in payload
            again = await client.optimize(workload_texts[0])
            assert again["source"] == "result_cache"

    asyncio.run(scenario())


def test_execute_matches_direct_service(build_service, workload_texts, small_setup, harness):
    """Gateway responses are byte-identical to direct service execution."""

    async def scenario():
        service = build_service()
        async with harness(service) as gateway:
            client = AsyncGatewayClient.in_process(gateway)
            for text, query in zip(workload_texts[:6], small_setup.queries[:6]):
                payload = await client.execute(text, execution_mode="vectorized")
                direct = service.execute(query, execution_mode="vectorized")
                assert json.dumps(payload["rows"], sort_keys=True) == json.dumps(
                    direct.execution.rows, sort_keys=True
                )
                assert payload["metrics"] == direct.metrics.as_dict()
                assert payload["row_count"] == direct.execution.row_count

    asyncio.run(scenario())


def test_execute_batch_rpc(build_service, workload_texts, harness):
    async def scenario():
        service = build_service()
        async with harness(service) as gateway:
            client = AsyncGatewayClient.in_process(gateway)
            payload = await client.execute_batch(
                workload_texts[:4] + workload_texts[:2],
                execution_mode="vectorized",
            )
            assert payload["stats"]["total"] == 6
            assert len(payload["results"]) == 6
            # Duplicate inputs share one optimization (batch dedup) and
            # return the same rows in input order.
            assert payload["results"][0]["rows"] == payload["results"][4]["rows"]

    asyncio.run(scenario())


def test_stats_rpc_shape(build_service, workload_texts, harness):
    async def scenario():
        service = build_service()
        async with harness(service) as gateway:
            client = AsyncGatewayClient.in_process(gateway)
            await client.execute(workload_texts[0])
            stats = await client.stats()
            assert stats["protocol_version"] == 2
            service_stats = stats["service"]
            assert service_stats["store_attached"] is True
            assert service_stats["single_flight"]["leaders"] >= 1
            gateway_stats = stats["gateway"]
            assert gateway_stats["requests"] == {"execute": 1, "stats": 1}
            assert gateway_stats["admission"]["admitted"] == 1
            assert gateway_stats["admission"]["active"] == 0

    asyncio.run(scenario())


def test_rules_add_and_remove(build_service, harness):
    async def scenario():
        service = build_service()
        async with harness(service) as gateway:
            client = AsyncGatewayClient.in_process(gateway)
            before = service.repository.generation
            added = await client.add_rule(
                {
                    "name": "gateway_rule",
                    "consequent": "cargo.quantity >= 0",
                    "classes": ["cargo"],
                }
            )
            assert added["generation"] > before
            assert "gateway_rule" in [
                constraint.name for constraint in service.repository.declared()
            ]
            with pytest.raises(GatewayRequestError) as excinfo:
                await client.add_rule(
                    {"name": "gateway_rule", "consequent": "cargo.quantity >= 0"}
                )
            assert excinfo.value.code == "protocol_error"
            removed = await client.remove_rule("gateway_rule")
            assert removed["generation"] > added["generation"]
            with pytest.raises(GatewayRequestError):
                await client.remove_rule("gateway_rule")

    asyncio.run(scenario())


def test_tcp_roundtrip_and_pipelining(build_service, workload_texts, harness):
    async def scenario():
        service = build_service()
        async with harness(service) as gateway:
            host, port = gateway.address
            client = await AsyncGatewayClient.connect(host, port)
            try:
                payloads = await asyncio.gather(
                    *(client.execute(text) for text in workload_texts[:8])
                )
                assert all("rows" in payload for payload in payloads)
                stats = await client.stats()
                assert stats["gateway"]["requests"]["execute"] == 8
            finally:
                await client.close()

    asyncio.run(scenario())


def test_identical_concurrent_requests_coalesce(build_service, workload_texts, harness):
    async def scenario():
        service = build_service()
        async with harness(service) as gateway:
            client = AsyncGatewayClient.in_process(gateway)
            # Uncached, so every copy needs the pool: a cached one would be
            # answered on the loop as soon as the leader's optimize landed.
            payloads = await asyncio.gather(
                *(client.execute(workload_texts[0], use_cache=False) for _ in range(12))
            )
            coalesced = sum(1 for payload in payloads if payload.get("coalesced"))
            # Everything fired in one event-loop batch, so exactly one
            # request led and the rest shared its flight.
            assert coalesced == 11
            rows = {json.dumps(payload["rows"], sort_keys=True) for payload in payloads}
            assert len(rows) == 1
            flight = service.single_flight.snapshot()
            assert flight.in_flight == 0
            assert flight.followers >= 11

    asyncio.run(scenario())


def test_distinct_options_do_not_coalesce(build_service, workload_texts, harness):
    async def scenario():
        service = build_service()
        async with harness(service) as gateway:
            client = AsyncGatewayClient.in_process(gateway)
            vectorized, rowwise = await asyncio.gather(
                client.execute(workload_texts[0], execution_mode="vectorized"),
                client.execute(workload_texts[0], execution_mode="rowwise"),
            )
            assert not vectorized.get("coalesced")
            assert not rowwise.get("coalesced")
            assert vectorized["execution_mode"] == "vectorized"
            assert rowwise["execution_mode"] == "rowwise"
            assert json.dumps(vectorized["rows"], sort_keys=True) == json.dumps(
                rowwise["rows"], sort_keys=True
            )

    asyncio.run(scenario())


def test_admission_sheds_load_when_full(build_service, workload_texts, harness):
    async def scenario():
        service = build_service()
        # One slot, no waiting room: the second concurrent distinct request
        # must be rejected with the overloaded code.
        async with harness(
            service, max_in_flight=1, max_waiting=0
        ) as gateway:
            client = AsyncGatewayClient.in_process(gateway)
            outcomes = await asyncio.gather(
                *(
                    client.execute(text)
                    for text in workload_texts[:4]
                ),
                return_exceptions=True,
            )
            rejected = [
                outcome
                for outcome in outcomes
                if isinstance(outcome, GatewayRequestError)
            ]
            succeeded = [
                outcome for outcome in outcomes if isinstance(outcome, dict)
            ]
            assert succeeded, "at least the first request must be served"
            assert rejected, "overload must shed load"
            assert all(error.code == "overloaded" for error in rejected)
            # The gateway remains healthy afterwards.
            payload = await client.execute(workload_texts[0])
            assert "rows" in payload

    asyncio.run(scenario())


def test_per_client_fairness_bound(build_service, workload_texts, harness):
    async def scenario():
        service = build_service()
        async with harness(
            service, max_in_flight=1, max_waiting=64, max_pending_per_client=2
        ) as gateway:
            greedy = AsyncGatewayClient.in_process(gateway, client_id="greedy")
            modest = AsyncGatewayClient.in_process(gateway, client_id="modest")
            outcomes = await asyncio.gather(
                *(greedy.execute(text) for text in workload_texts[:6]),
                modest.execute(workload_texts[6]),
                return_exceptions=True,
            )
            greedy_rejections = [
                outcome
                for outcome in outcomes[:6]
                if isinstance(outcome, GatewayRequestError)
            ]
            assert greedy_rejections, "the greedy client must hit its bound"
            assert all(
                error.code == "client_queue_full" for error in greedy_rejections
            )
            assert isinstance(outcomes[6], dict), "the modest client is unaffected"

    asyncio.run(scenario())


def test_stats_counters_are_consistent_under_load(
    build_service, workload_texts, harness
):
    """The stats snapshot never shows torn counters mid-traffic."""

    async def scenario():
        service = build_service()
        async with harness(service) as gateway:
            client = AsyncGatewayClient.in_process(gateway)

            async def hammer():
                for _ in range(3):
                    await asyncio.gather(
                        *(client.execute(text) for text in workload_texts[:6])
                    )

            async def observe():
                for _ in range(10):
                    stats = (await client.stats())["service"]
                    cache = stats["cache"]
                    assert cache["result_hits"] <= (
                        cache["result_hits"] + cache["result_misses"]
                    )
                    flight = stats["single_flight"]
                    assert flight["followers"] >= 0 and flight["leaders"] >= 0
                    await asyncio.sleep(0)

            await asyncio.gather(hammer(), observe())

    asyncio.run(scenario())
