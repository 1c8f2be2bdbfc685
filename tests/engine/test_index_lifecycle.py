"""Runtime index lifecycle: journaling, replay convergence, statistics.

``create_index``/``drop_index`` are journaled mutations: every applied op
moves the global version by exactly one (the journal/WAL seq-density
invariant), no-ops never journal, and replicas, snapshot restores and
forked parallel workers all converge on the same live index set through
the same records as data writes.
"""

import pytest

from repro.data import build_evaluation_schema
from repro.engine import DatabaseStatistics, ParallelExecutor, QueryExecutor
from repro.engine.storage import (
    MutationRecord,
    ShardedObjectStore,
    StorageError,
)
from repro.query import parse_query


@pytest.fixture(scope="module")
def schema():
    return build_evaluation_schema()


def _seed_store(schema, shard_count=2, rows=12):
    store = ShardedObjectStore(schema, shard_count=shard_count)
    for i in range(rows):
        store.insert(
            "cargo",
            {
                "code": f"C{i}",
                "desc": "frozen food" if i % 3 == 0 else "textiles",
                "quantity": 100 + i,
                "category": "general",
            },
        )
    return store


def test_index_ops_journal_one_version_each(schema):
    store = _seed_store(schema)
    v0 = store.version
    assert not store.indexes.is_indexed("cargo", "quantity")

    assert store.create_index("cargo", "quantity")
    assert store.version == v0 + 1
    (record,) = store.journal_since(v0)
    assert record.op == "create_index"
    assert record.class_name == "cargo"
    assert record.values == {"attribute": "quantity"}
    assert store.indexes.is_indexed("cargo", "quantity")

    assert store.drop_index("cargo", "quantity")
    assert store.version == v0 + 2
    records = store.journal_since(v0)
    assert [r.op for r in records] == ["create_index", "drop_index"]
    assert not store.indexes.is_indexed("cargo", "quantity")


def test_noop_index_ops_never_journal(schema):
    store = _seed_store(schema)
    v0 = store.version
    # "category" is schema-declared: creating it again is a no-op.
    assert store.create_index("cargo", "category") is False
    # "quantity" carries no index: dropping it is a no-op too.
    assert store.drop_index("cargo", "quantity") is False
    assert store.version == v0
    assert store.journal_since(v0) == []


def test_index_ops_validate_their_target(schema):
    store = _seed_store(schema)
    with pytest.raises(StorageError):
        store.create_index("no_such_class", "quantity")
    with pytest.raises(StorageError):
        store.create_index("cargo", "no_such_attribute")
    with pytest.raises(StorageError):
        store.create_index("cargo", "supplies")  # pointer attribute


def test_replica_converges_through_journal_and_snapshot(schema):
    primary = _seed_store(schema)
    replica = ShardedObjectStore.restore(
        schema, primary.snapshot_header(), primary.snapshot_rows()
    )
    assert replica.version == primary.version

    primary.create_index("cargo", "quantity")
    primary.insert(
        "cargo",
        {"code": "C99", "desc": "late", "quantity": 999, "category": "bulk"},
    )
    primary.drop_index("cargo", "desc")  # schema-declared, live until now

    records = primary.journal_since(replica.version)
    assert [r.op for r in records] == ["create_index", "insert", "drop_index"]
    assert replica.apply_journal(records) == 3

    assert replica.version == primary.version
    assert replica.indexes.is_indexed("cargo", "quantity")
    assert not replica.indexes.is_indexed("cargo", "desc")
    assert replica.index_overrides() == primary.index_overrides()
    assert list(replica.snapshot_rows()) == list(primary.snapshot_rows())
    # The restored override set survives a further snapshot round-trip.
    twice = ShardedObjectStore.restore(
        schema, replica.snapshot_header(), replica.snapshot_rows()
    )
    assert twice.index_overrides() == primary.index_overrides()
    assert twice.indexes.is_indexed("cargo", "quantity")


def test_replayed_noop_index_op_is_divergence(schema):
    store = _seed_store(schema)
    record = MutationRecord(
        store.version + 1, "create_index", "cargo", 0, {"attribute": "category"}
    )
    # "category" is already indexed here: the journaling store's version
    # advanced, ours cannot — that is divergence, not a duplicate.
    with pytest.raises(StorageError, match="no-op"):
        store.apply_journal([record])


def test_index_create_and_drop_refresh_indexed_without_an_extent_walk(
    schema, monkeypatch
):
    store = _seed_store(schema)
    before = store.statistics()
    assert before.is_indexed("cargo", "category") is True

    walks = []
    monkeypatch.setattr(
        ShardedObjectStore,
        "instances",
        lambda self, class_name: walks.append(class_name),
    )
    monkeypatch.setattr(
        DatabaseStatistics, "collect", staticmethod(lambda *args: walks.append(args))
    )
    store.drop_index("cargo", "category")
    after = store.statistics()
    # The live-index set is refreshed; the data statistics are the same
    # numbers, read off the maintained summaries.
    assert after.is_indexed("cargo", "category") is False
    assert after.cardinality("cargo") == before.cardinality("cargo")
    assert after.attributes == before.attributes

    store.create_index("cargo", "quantity")
    assert store.statistics().is_indexed("cargo", "quantity") is True
    assert walks == []


def test_parallel_workers_sync_index_ops_without_reforking(schema):
    store = _seed_store(schema, rows=32)
    query = parse_query(
        "(SELECT {cargo.code} { } {cargo.quantity = 110} { } {cargo})",
        name="quantity-probe",
    )
    rowwise = QueryExecutor(schema, store)
    parallel = ParallelExecutor(schema, store, workers=2, min_partition_rows=1)
    try:
        cold = parallel.execute(query)
        pids = parallel.worker_pids()
        assert cold.rows == rowwise.execute(query).rows

        store.create_index("cargo", "quantity")
        warm = parallel.execute(query)
        # The forked workers bridged the create_index record through the
        # journal — same processes, now answering through the new index.
        assert parallel.worker_pids() == pids
        assert warm.rows == rowwise.execute(query).rows
        assert warm.metrics.index_lookups > cold.metrics.index_lookups
    finally:
        parallel.close()
