"""Replication oracle: seeded schedules converge byte-identically.

Drives seeded random mutation schedules (insert / update / delete,
single rows and batches) through the primary while two replicas tail
the feed, then asserts the replicated promise exactly: every replica's
rows (including attribute order), per-shard version counters and OID
allocators match the primary byte for byte, and a query answered by a
replica returns the same rows as the primary on every served engine.
"""

import asyncio
import json
import random

from repro.query import parse_query

SEEDS = (101, 202, 303)
STEPS = 40

QUERY = parse_query(
    '(SELECT {cargo.code, cargo.quantity} { } {cargo.quantity >= 0} { } {cargo})',
    name="oracle_probe",
)


def _apply_schedule(service, rng, steps):
    """Seeded ops against ``service``; deletes/updates target live OIDs."""
    live = [1, 2, 3, 4, 5, 6]  # the harness seeds six cargo rows
    counter = 0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.45 or not live:
            counter += 1
            result = service.mutate(
                "insert", "cargo",
                values={"code": f"S{counter}", "desc": "frozen food",
                        "quantity": rng.randrange(1000),
                        "category": "general", "collects": 1},
            )
            live.extend(result.oids)
        elif roll < 0.65:
            counter += 1
            rows = [
                {"code": f"B{counter}-{i}", "desc": "frozen food",
                 "quantity": rng.randrange(1000), "category": "general",
                 "collects": 1}
                for i in range(rng.randrange(2, 5))
            ]
            result = service.mutate("insert_many", "cargo", rows=rows)
            live.extend(result.oids)
        elif roll < 0.85:
            service.mutate(
                "update", "cargo", oid=rng.choice(live),
                values={"quantity": rng.randrange(1000)},
            )
        else:
            oid = live.pop(rng.randrange(len(live)))
            service.mutate("delete", "cargo", oid=oid)


def test_seeded_schedules_converge_byte_identical(
    make_harness, state_fingerprint
):
    async def scenario(seed):
        harness = make_harness()
        await harness.start()
        await harness.add_replica()
        await harness.add_replica()
        try:
            _apply_schedule(harness.service, random.Random(seed), STEPS)
            await harness.wait_applied()
            await harness.wait_acked()
            primary = state_fingerprint(harness.store)
            replicas = [
                state_fingerprint(store) for store in harness.replica_stores
            ]
            direct = harness.service.execute(QUERY, use_cache=False)
            answers = [
                service.execute(QUERY, use_cache=False, execution_mode=engine)
                for service in harness.replica_services
                for engine in ("rowwise", "vectorized")
            ]
            return primary, replicas, direct, answers
        finally:
            await harness.stop()

    for seed in SEEDS:
        primary, replicas, direct, answers = asyncio.run(scenario(seed))
        for index, replica in enumerate(replicas):
            assert replica == primary, (
                f"replica {index} diverged from the primary (seed {seed})"
            )
        expected = json.dumps(direct.execution.rows, sort_keys=True)
        for index, answer in enumerate(answers):
            got = json.dumps(answer.execution.rows, sort_keys=True)
            assert got == expected, (
                f"replica answer {index} differed (seed {seed})"
            )
