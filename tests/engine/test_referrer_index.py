"""The reverse-pointer index: always equal to its definition, and what the
batch engines join through.

:meth:`ShardedObjectStore.referrer_map` scans an extent and reads pointers
off the rows; :meth:`ShardedObjectStore.referrer_oids` is the map the store
maintains where values change.  The first half drives a seeded schedule of
every operation that changes stored pointers and compares the two after
every step, on the store, on a journal-fed replica, across
``snapshot -> restore`` and across a kill-and-recover through the WAL.  The
second half joins a hand-built store whose links exercise every branch of
the probe, straight off a scan and again off a join that repeats every
source instance, and requires the vectorized and parallel engines to
return the row-wise engine's rows and counters, element for element (the
row-wise engine reads both directions off the rows themselves, so it is the
oracle).
"""

import random
from collections import Counter

import pytest

from repro.constraints import Predicate
from repro.data import build_evaluation_schema
from repro.durability import DurabilityManager, recover
from repro.engine import ObjectStore, QueryExecutor, VectorizedExecutor
from repro.engine.parallel import ParallelExecutor
from repro.engine.plan import ProjectNode, QueryPlan, ScanNode, TraverseNode


@pytest.fixture(scope="module")
def schema():
    return build_evaluation_schema()


def assert_index_is_the_scan(store):
    """Every maintained map equals ``referrer_map``'s scan, bucket layout included."""
    for cls in store.schema.classes():
        for attribute in cls.pointer_attributes:
            held = store.referrer_oids(cls.name, attribute.name)
            scanned = {
                target: [instance.oid for instance in instances]
                for target, instances in store.referrer_map(
                    cls.name, attribute.name
                ).items()
            }
            assert {
                target: [bucket] if isinstance(bucket, int) else list(bucket)
                for target, bucket in held.items()
            } == scanned, f"{cls.name}.{attribute.name}"
            for bucket in held.values():
                # A single referrer is stored bare; several ascending, once each.
                assert isinstance(bucket, int) or (
                    len(bucket) > 1 and list(bucket) == sorted(set(bucket))
                )


# ----------------------------------------------------------------------
# (a) the index equals its definition after every step
# ----------------------------------------------------------------------
def _pointer_value(rng, live):
    """Scalar, list, repeated, dangling, emptied and unset pointers."""
    pick = (lambda: rng.choice(live)) if live else (lambda: 1)
    return rng.choice(
        [
            lambda: pick(),
            lambda: [pick(), pick()],
            lambda: [pick()],
            lambda: [pick(), 9000 + rng.randrange(3), pick()],  # dangling + repeat
            lambda: [pick()] * 2,
            lambda: 9000,
            lambda: [],
            lambda: None,
        ]
    )()


def _step(rng, store, durability):
    """Apply one seeded operation; returns its name (for failure messages)."""
    cargo = [instance.oid for instance in store.instances("cargo")]
    vehicles = [instance.oid for instance in store.instances("vehicle")]
    kind = rng.choice(
        ["insert", "insert", "repoint", "repoint", "repoint", "value", "delete",
         "rebuild", "other_side"]
    )
    if kind == "insert" or not cargo or not vehicles:
        store.insert(
            "cargo",
            {
                "code": f"C{rng.randrange(1000)}",
                "quantity": rng.randrange(100),
                "collects": _pointer_value(rng, vehicles),
                "supplies": _pointer_value(rng, [1, 2]),
            },
        )
        store.insert("vehicle", {"class": rng.randrange(5)})
        kind = "insert"
    elif kind == "repoint":
        values = {"collects": _pointer_value(rng, vehicles)}
        if rng.random() < 0.5:
            values["quantity"] = rng.randrange(100)
        store.update("cargo", rng.choice(cargo), values)
    elif kind == "other_side":
        store.update(
            "vehicle", rng.choice(vehicles), {"collects": _pointer_value(rng, cargo)}
        )
    elif kind == "value":
        held = {key: dict(buckets) for key, buckets in store._referrers.items()}
        store.update("cargo", rng.choice(cargo), {"quantity": rng.randrange(100)})
        assert {k: dict(v) for k, v in store._referrers.items()} == held
    elif kind == "delete":
        class_name = rng.choice(["cargo", "vehicle"])
        store.delete(class_name, rng.choice(cargo if class_name == "cargo" else vehicles))
    else:  # a pointer written around update() is visible after a rebuild
        instance = store.get("cargo", rng.choice(cargo))
        instance.values["collects"] = _pointer_value(rng, vehicles)
        store.rebuild_indexes()
    durability.commit()
    return kind


@pytest.mark.parametrize("shard_count", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_index_equals_the_scan_after_every_step(tmp_path, schema, shard_count, seed):
    rng = random.Random(f"referrers-{seed}-{shard_count}")
    durability = DurabilityManager(str(tmp_path), fsync_policy="off")
    store, _ = durability.open(ObjectStore(schema, shard_count=shard_count))
    replica = ObjectStore(schema, shard_count=3 - shard_count)
    for step in range(40):
        kind = _step(rng, store, durability)
        assert_index_is_the_scan(store)
        # A second store fed the journal (re-snapshotted across a rebuild,
        # which un-journaled edits make unbridgeable).
        delta = store.journal_since(replica.version)
        if delta is None:
            replica = ObjectStore.restore(
                schema, store.snapshot_header(), list(store.snapshot_rows())
            )
        else:
            replica.apply_journal(delta)
        assert_index_is_the_scan(replica)
        assert replica._referrers == store._referrers, (step, kind)
        if step % 10 == 9:
            restored = ObjectStore.restore(
                schema, store.snapshot_header(), list(store.snapshot_rows())
            )
            assert_index_is_the_scan(restored)
            assert restored._referrers == store._referrers
        if kind == "rebuild":
            # In-place edits never reached the WAL: give recovery a
            # snapshot that holds them, as a serving process would.
            durability.snapshot()
    # Kill: no close, no final snapshot — recover from snapshot + WAL tail.
    durability.flush()
    recovered, report = recover(str(tmp_path), schema, shard_count=shard_count)
    assert report.final_version == store.version
    assert_index_is_the_scan(recovered)
    assert recovered._referrers == store._referrers
    assert list(recovered.snapshot_rows()) == list(store.snapshot_rows())
    durability.close()


# ----------------------------------------------------------------------
# (b) the probe returns the row-wise join, element for element
# ----------------------------------------------------------------------
def _linked_store(schema, shard_count):
    """Cargo -> vehicle links that take every branch of the probe, and
    supplier -> cargo links that reach each cargo twice.

    Vehicles are inserted so that ``vehicle.class`` order differs from OID
    order: a sorted-index range over ``class`` answers in ``(class, oid)``
    order, which is then the join's candidate order.
    """
    store = ObjectStore(schema, shard_count=shard_count)
    # vehicle OIDs 1..6, classes 5, 4, 3, 2, 1, 0
    for index in range(6):
        store.insert(
            "vehicle", {"vehicle_no": f"V{index}", "class": 5 - index, "desc": "van"}
        )
    cargo = [
        {"code": "both", "collects": [2, 3]},          # 1: both sides
        {"code": "forward", "collects": [4, 1]},       # 2: forward-only, pointer order
        {"code": "reverse"},                           # 3: reverse-only, 3 referrers
        {"code": "repeat", "collects": [5, 5, 2, 5]},  # 4: repeated OID
        {"code": "dangling", "collects": [77, 6]},     # 5: dangling OID
        {"code": "mixed", "collects": 3},              # 6: scalar forward + reverse-only
        {"code": "lonely"},                            # 7: no link at all
    ]
    for values in cargo:
        store.insert("cargo", dict(values, quantity=10))
    store.update("vehicle", 2, {"collects": [1, 3, 6]})
    store.update("vehicle", 3, {"collects": 1})
    store.update("vehicle", 5, {"collects": [3, 3, 88]})
    store.update("vehicle", 6, {"collects": (3, 6)})
    # supplier OIDs 1..3: each cargo is reached from two suppliers, so a
    # join off ``supplies`` repeats every cargo in its target column.
    for index, supplies in enumerate([[3, 1, 6, 3, 5], [6, 7, 5, 4, 2, 3], [2, 4, 7]]):
        store.insert("supplier", {"name": f"S{index}", "supplies": supplies})
    store.update("cargo", 1, {"supplies": 3})  # reverse-only on that side
    return store


def _collects(child, target_predicates):
    return TraverseNode(
        child=child,
        relationship="collects",
        source_class="cargo",
        target_class="vehicle",
        pointer_attribute="collects",
        forward=True,
        predicates=tuple(target_predicates),
    )


def _join_plan(target_predicates, driver_predicates=()):
    scan = ScanNode("cargo", predicates=tuple(driver_predicates))
    return QueryPlan(
        root=ProjectNode(
            _collects(scan, target_predicates), ("cargo.code", "vehicle.vehicle_no")
        ),
        class_order=("cargo", "vehicle"),
    )


JOINS = {
    "unfiltered": _join_plan([]),
    # Answered by the sorted index: candidates arrive in (class, oid) order,
    # i.e. descending OID here.
    "range": _join_plan([Predicate.selection("vehicle.class", ">=", 0)]),
    "range_some": _join_plan([Predicate.selection("vehicle.class", "<=", 3)]),
    # Answered by a hash bucket (ascending OID), then filtered.
    "equality": _join_plan(
        [Predicate.equals("vehicle.desc", "van"),
         Predicate.selection("vehicle.class", "!=", 4)]
    ),
    "empty_source": _join_plan([], [Predicate.equals("cargo.code", "nobody")]),
    "empty_source_filtered": _join_plan(
        [Predicate.selection("vehicle.class", ">=", 0)],
        [Predicate.equals("cargo.code", "nobody")],
    ),
}


@pytest.mark.parametrize("shard_count", [1, 2])
@pytest.mark.parametrize("join", sorted(JOINS))
def test_probe_matches_the_rowwise_join(schema, shard_count, join):
    store = _linked_store(schema, shard_count)
    assert_index_is_the_scan(store)
    plan = JOINS[join]
    expected = QueryExecutor(schema, store).execute_plan(plan)
    parallel = ParallelExecutor(schema, store, workers=2, min_partition_rows=1)
    try:
        for executor in (VectorizedExecutor(schema, store), parallel):
            result = executor.execute_plan(plan)
            assert result.rows == expected.rows, executor.mode
            assert result.metrics.as_dict() == expected.metrics.as_dict(), executor.mode
        if not join.startswith("empty_source"):
            assert parallel.execute_plan(plan).shard_reports is not None
    finally:
        parallel.close()


def test_reverse_only_referrers_come_in_candidate_order(schema):
    """Pins the order itself, so the parametrized comparison cannot pass by
    both sides being wrong: cargo ``reverse`` is held by vehicles 2, 5 and 6
    and points at none of them."""
    store = _linked_store(schema, 2)

    def vehicles_of(join, code):
        rows = VectorizedExecutor(schema, store).execute_plan(JOINS[join]).rows
        return [row["vehicle.vehicle_no"] for row in rows if row["cargo.code"] == code]

    assert vehicles_of("unfiltered", "reverse") == ["V1", "V4", "V5"]
    assert vehicles_of("range", "reverse") == ["V5", "V4", "V1"]
    assert vehicles_of("range_some", "reverse") == ["V5", "V4"]
    assert vehicles_of("equality", "reverse") == ["V4", "V5"]
    # Forward pointers first, in pointer order; then the reverse-only one.
    assert vehicles_of("unfiltered", "forward") == ["V3", "V0"]
    assert vehicles_of("range", "mixed") == ["V2", "V5", "V1"]
    assert vehicles_of("unfiltered", "repeat") == ["V4", "V1"]
    assert vehicles_of("unfiltered", "dangling") == ["V5"]
    assert vehicles_of("unfiltered", "lonely") == []


# supplier -> cargo: the source column of a join stacked on it repeats cargo.
SUPPLIES = TraverseNode(
    child=ScanNode("supplier"),
    relationship="supplies",
    source_class="supplier",
    target_class="cargo",
    pointer_attribute="supplies",
    forward=True,
)


@pytest.mark.parametrize("shard_count", [1, 2])
@pytest.mark.parametrize("join_strategy", ["hash", "nested_loop"])
@pytest.mark.parametrize("target", ["unfiltered", "range", "range_some"])
def test_repeated_sources_reuse_every_branch_of_the_probe(
    schema, shard_count, join_strategy, target
):
    """The second join's source column repeats every cargo of
    ``_linked_store``: both-sides, forward-only, reverse-only, repeated,
    dangling and unlinked.  A repeat reuses its first row's matches, so a
    reuse that kept only the forward ones would lose rows here."""
    store = _linked_store(schema, shard_count)
    first_hop = QueryExecutor(schema, store).execute_plan(
        QueryPlan(
            root=ProjectNode(SUPPLIES, ("cargo.code",)),
            class_order=("supplier", "cargo"),
        )
    )
    reached = Counter(row["cargo.code"] for row in first_hop.rows)
    assert sorted(reached.values()) == [2] * 7, reached
    plan = QueryPlan(
        root=ProjectNode(
            _collects(SUPPLIES, JOINS[target].root.child.predicates),
            ("supplier.name", "cargo.code", "vehicle.vehicle_no"),
        ),
        class_order=("supplier", "cargo", "vehicle"),
    )
    expected = QueryExecutor(
        schema, store, join_strategy=join_strategy
    ).execute_plan(plan)
    assert expected.rows
    parallel = ParallelExecutor(
        schema, store, join_strategy=join_strategy, workers=2, min_partition_rows=1
    )
    try:
        for executor in (
            VectorizedExecutor(schema, store, join_strategy=join_strategy),
            parallel,
        ):
            result = executor.execute_plan(plan)
            assert result.rows == expected.rows, executor.mode
            assert result.metrics.as_dict() == expected.metrics.as_dict(), executor.mode
        assert parallel.execute_plan(plan).shard_reports is not None
    finally:
        parallel.close()
