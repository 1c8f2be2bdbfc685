"""Row memos: derived from ``values``, invalidated where ``values`` changes.

An :class:`~repro.engine.ObjectInstance` memoizes its normalized pointer
lists for the batch engines.  These tests pin the two halves of that contract: the memo never shows (equality,
``repr``, ``copy()``, snapshot bytes), and every path that changes stored
values — ``update``, journal replay of an update, an in-place repair
followed by ``rebuild_indexes`` — leaves all three engines answering
exactly like the row-wise engine on a freshly built store.
"""

import os

import pytest

from repro.durability.snapshot import write_snapshot
from repro.engine import (
    ConventionalPlanner,
    ObjectStore,
    ParallelExecutor,
    QueryExecutor,
    ShardedObjectStore,
    VectorizedExecutor,
)
from repro.query import parse_query

QUERIES = [
    parse_query(text, name=f"memo-{index}")
    for index, text in enumerate(
        [
            '(SELECT {cargo.code, cargo.quantity} { } {cargo.desc = "machinery"} '
            "{ } {cargo})",
            '(SELECT {cargo.code, vehicle.vehicle_no} { } {cargo.quantity >= 20} '
            "{collects} {cargo, vehicle})",
            '(SELECT {supplier.name, cargo.code, vehicle.desc} { } '
            '{vehicle.desc = "van"} {supplies, collects} {supplier, cargo, vehicle})',
        ]
    )
]

#: Rewrites a scalar pointer into a list, an indexed value and a plain one.
CHANGE = {"collects": [2, 3], "desc": "machinery", "quantity": 77}


def _seeded_store(schema, shard_count=2):
    store = ShardedObjectStore(schema, shard_count=shard_count)
    for i in range(3):
        store.insert("supplier", {"name": f"S{i}", "region": "west", "rating": 3})
    for i in range(4):
        store.insert(
            "vehicle",
            {"vehicle_no": f"V{i}", "desc": ("van", "tanker")[i % 2], "class": 2},
        )
    for i in range(10):
        store.insert(
            "cargo",
            {
                "code": f"C{i}",
                "desc": ("frozen food", "textiles")[i % 2],
                "quantity": 10 * i,
                "category": "general",
                "supplies": 1 + i % 3,
                "collects": 1 + i % 4,
            },
        )
    return store


def _change_by_update(store):
    store.update("cargo", 1, CHANGE)


def _change_by_journal_replay(store):
    """The update happens on a twin; the store only replays its journal."""
    twin = ShardedObjectStore.restore(
        store.schema, store.snapshot_header(), store.snapshot_rows()
    )
    twin.update("cargo", 1, CHANGE)
    assert store.apply_journal(twin.journal_since(store.version)) == 1


def _change_by_repair_and_rebuild(store):
    """Bypasses ``update`` on purpose, as the generator's enforcement does."""
    store.get("cargo", 1).values.update(CHANGE)
    store.rebuild_indexes()


@pytest.mark.parametrize(
    "change",
    [_change_by_update, _change_by_journal_replay, _change_by_repair_and_rebuild],
)
def test_engines_match_fresh_store_after_values_change(evaluation_schema, change):
    schema = evaluation_schema
    store = _seeded_store(schema)
    parallel = ParallelExecutor(schema, store, workers=2, min_partition_rows=1)
    engines = [QueryExecutor(schema, store), VectorizedExecutor(schema, store), parallel]
    try:
        for executor in engines:  # fill every memo (and fork the workers)
            for query in QUERIES:
                executor.execute(query)
        change(store)
        fresh = ObjectStore(schema)
        for class_name, _oid, values in store.snapshot_rows():
            fresh.insert(class_name, dict(values))
        oracle = QueryExecutor(schema, fresh)
        planner = ConventionalPlanner(schema, fresh.statistics())
        for query in QUERIES:
            plan = planner.plan(query)
            expected = oracle.execute_plan(plan)
            assert expected.rows, "the query must observe the changed row"
            for executor in engines:
                result = executor.execute_plan(plan)
                assert result.rows == expected.rows, executor.mode
                assert result.metrics.as_dict() == expected.metrics.as_dict()
    finally:
        parallel.close()


def test_memo_is_no_part_of_an_instance(evaluation_schema, tmp_path):
    cold = _seeded_store(evaluation_schema)
    warm = _seeded_store(evaluation_schema)
    for class_name in ("supplier", "vehicle", "cargo"):
        for left, right in zip(cold.instances(class_name), warm.instances(class_name)):
            # filled, and shared
            assert right.pointers("collects") is right.pointers("collects")
            assert left == right and right == left
            assert repr(left) == repr(right)
    filled = warm.get("cargo", 1)
    clone = filled.copy()
    assert clone == filled
    clone.values["collects"] = [2, 3]
    assert clone.pointers("collects") == [2, 3]
    assert filled.pointers("collects") == [1]

    def snapshot_bytes(name, store):
        os.mkdir(tmp_path / name)
        with open(write_snapshot(str(tmp_path / name), store), "rb") as handle:
            return handle.read()

    assert snapshot_bytes("cold", cold) == snapshot_bytes("warm", warm)
