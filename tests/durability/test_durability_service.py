"""The durable write path through ``OptimizationService`` and the gateway.

Covers the integration contracts: durability metadata on mutation results
and stats, WAL commit inside the write-lock span, sink fork-safety
(replay never double-writes frames), and a parallel executor's worker
catch-up running against a WAL-sinked store without duplicating a single
frame.
"""

import asyncio

import pytest

from repro.constraints import ConstraintRepository
from repro.data import build_evaluation_schema
from repro.durability import DurabilityManager, recover
from repro.engine.parallel import ParallelExecutor
from repro.engine.storage import ShardedObjectStore
from repro.query import parse_query
from repro.service import OptimizationService


@pytest.fixture()
def schema():
    return build_evaluation_schema()


def _durable_service(schema, tmp_path, shard_count=3, **service_kwargs):
    manager = DurabilityManager(str(tmp_path), fsync_policy="off")
    store, _ = manager.open(ShardedObjectStore(schema, shard_count=shard_count))
    service = OptimizationService(
        schema,
        repository=ConstraintRepository(schema),
        store=store,
        **service_kwargs,
    )
    service.attach_durability(manager)
    return service, manager


def test_mutation_results_carry_durability_metadata(tmp_path, schema):
    service, manager = _durable_service(schema, tmp_path)
    result = service.mutate("insert", "cargo", values={"desc": "durable"})
    assert result.durability is not None
    assert result.durability["wal_frames"] == 1
    assert result.durability["fsynced"] is False  # policy "off"
    assert result.durability["snapshot_version"] == 0
    assert "durability" in result.as_dict()

    stats = service.stats()
    assert stats.durability is not None
    assert stats.durability["wal_frames"] == 1
    assert stats.durability["fsync_policy"] == "off"
    assert stats.as_dict()["durability"]["wal_commits"] == 1
    service.close()
    manager.close()


def test_without_durability_metadata_is_absent(schema):
    service = OptimizationService(
        schema,
        repository=ConstraintRepository(schema),
        store=ShardedObjectStore(schema),
    )
    result = service.mutate("insert", "cargo", values={"desc": "plain"})
    assert result.durability is None
    assert "durability" not in result.as_dict()
    assert service.stats().durability is None
    service.flush_durability()  # must be a harmless no-op
    service.close()


def test_journal_replay_never_feeds_the_wal_sink(schema):
    primary = ShardedObjectStore(schema, shard_count=2)
    replica = ShardedObjectStore(schema, shard_count=2)
    sunk = []
    replica.set_mutation_sink(sunk.append)
    primary.insert("cargo", {"desc": "x"})
    primary.insert("cargo", {"desc": "y"})
    # Replay is exactly the path forked workers (and recovery) take: it
    # must never re-emit frames through the replica's attached sink.
    assert replica.apply_journal(primary.journal_since(0)) == 2
    assert sunk == []
    # Direct mutations on the replica still reach the sink.
    replica.insert("cargo", {"desc": "z"})
    assert len(sunk) == 1 and sunk[0].op == "insert"


def test_sink_fires_even_with_journal_disabled(schema):
    store = ShardedObjectStore(schema, journal_limit=0)
    sunk = []
    store.set_mutation_sink(sunk.append)
    store.insert("cargo", {"desc": "unjournaled"})
    assert len(sunk) == 1  # WAL durability must not depend on journaling


def test_parallel_worker_sync_does_not_duplicate_wal_frames(tmp_path, schema):
    service, manager = _durable_service(schema, tmp_path)
    parallel = ParallelExecutor(schema, service.store, workers=2, min_partition_rows=1)
    query = parse_query(
        "(SELECT {cargo.desc} { } {cargo.quantity >= 5} { } {cargo})"
    )
    mutations = 0
    try:
        for round_index in range(3):
            for row_index in range(4):
                service.mutate(
                    "insert",
                    "cargo",
                    values={
                        "desc": f"r{round_index}-{row_index}",
                        "quantity": row_index * 10,
                    },
                )
                mutations += 1
            # Forces the forked workers to catch up via journal replay
            # while the store carries a live WAL sink.
            assert parallel.execute(query).shard_reports is not None
    finally:
        parallel.close()
    assert manager.stats()["wal_frames"] == mutations
    service.close()
    service.flush_durability()
    manager.close()
    recovered, report = recover(str(tmp_path), schema)
    assert report.clean, report.as_dict()
    assert recovered.version == mutations
    assert list(recovered.snapshot_rows()) == list(
        service.store.snapshot_rows()
    )


def test_gateway_stop_flushes_the_wal(tmp_path, schema):
    from repro.server import QueryGateway

    service, manager = _durable_service(schema, tmp_path)

    async def run():
        gateway = QueryGateway(service, "127.0.0.1", 0)
        await gateway.start()
        response = await gateway.dispatch(
            {
                "op": "insert",
                "id": 1,
                "class": "cargo",
                "values": {"desc": "drained"},
            }
        )
        assert response["ok"], response
        assert await gateway.stop()

    asyncio.run(run())
    fsyncs_after_stop = manager.stats()["wal_fsyncs"]
    assert fsyncs_after_stop >= 1  # stop() forced the drain flush
    manager.close()
    recovered, _ = recover(str(tmp_path), schema)
    assert [i.values["desc"] for i in recovered.instances("cargo")] == [
        "drained"
    ]
