"""Value summaries: rule derivation and statistics equal their definitions.

:func:`~repro.constraints.dynamic.derive_by_scan` and
:meth:`DatabaseStatistics.collect` read every instance; the store's
:meth:`~repro.engine.storage.ShardedObjectStore.value_summary` is what the
writes maintain and what :meth:`DynamicRuleDeriver.derive` and
``store.statistics()`` read.  Two kinds of schedule drive a store — the
reverse-pointer index's seeded ``_step`` schedule, and a fixed one over the
value edges (``None`` and missing values, a refused stray string in a
numeric column, ``1`` / ``1.0`` / ``True`` in one column, deleting a column's
least or greatest value or a source value's first row, a source attribute
crossing ``max_distinct`` both ways, in-place edits, an emptied extent) —
and after every step both readings must agree, rule for rule and name for
name, on the store, on a journal-fed replica, across ``snapshot ->
restore``, across ``rebuild_indexes`` and after a kill-and-recover.
"""

import random

import pytest

from repro.constraints import ConstraintRepository, DerivationConfig, DynamicRuleDeriver
from repro.constraints.dynamic import derive_by_scan
from repro.data import build_evaluation_schema
from repro.durability import DurabilityManager, recover
from repro.engine import DatabaseStatistics, ObjectStore, StorageError
from repro.engine.storage import MutationRecord

from .test_referrer_index import _step

#: One summary serves every config: the default, and one whose caps the
#: schedules cross all the time.
CONFIGS = (DerivationConfig(), DerivationConfig(min_support=1, max_distinct=3))
#: Names already taken, so the fresh-name numbering has gaps to fill.
TAKEN = ("d2", "d5")


@pytest.fixture(scope="module")
def schema():
    return build_evaluation_schema()


def _rules(rules):
    return [(ConstraintRepository._identity(rule), str(rule)) for rule in rules]


def assert_summaries_are_the_scans(store):
    """Derivation and statistics read off the summaries equal the scans."""
    schema = store.schema
    for config in CONFIGS:
        derived = DynamicRuleDeriver(schema, config).derive(store, existing_names=TAKEN)
        scanned = derive_by_scan(schema, store, existing_names=TAKEN, config=config)
        assert _rules(derived) == _rules(scanned)
    expected = DatabaseStatistics.collect(schema, store)
    statistics = store.statistics()
    assert statistics == expected
    assert repr(statistics) == repr(expected)  # 1 and 1.0 are equal, not the same


def _edges(store):
    """The value edges, one op at a time (OIDs count from 1 per class)."""

    def cargo(**values):
        return ("insert", "cargo", values)

    yield cargo(code="c1", desc="a", quantity=5, category="x")
    yield cargo(code="c2", desc="b", quantity=1, category="y")
    yield cargo(code="c3", desc="b", quantity=1.0, category="y")
    yield cargo(code="c4", desc="a", quantity=9, category="x")
    yield cargo(code="c5", desc="a", quantity=None, category="x")  # no range rule
    yield ("update", "cargo", 5, {"quantity": 7})
    yield cargo(code="c6", category="x")  # desc and quantity missing
    yield ("delete", "cargo", 6)
    # The first-inserted 1: the least value is now spelled 1.0, and desc
    # "b" first occurs at OID 3.
    yield ("delete", "cargo", 2)
    # Desc "a" now first occurs at OID 4, after "b": the rule order flips.
    yield ("delete", "cargo", 1)
    # A stray string in a numeric column is refused and takes no OID.
    yield ("refused", "cargo", {"code": "c7", "desc": "b", "quantity": "many"})
    yield ("refused", "cargo", 4, {"quantity": "many"})
    yield cargo(code="c8", desc="a", quantity=0, category="x")  # a new least ...
    yield ("delete", "cargo", 7)  # ... deleted
    yield cargo(code="c9", desc="a", quantity=100, category="x")  # a new greatest ...
    yield ("delete", "cargo", 8)  # ... deleted
    yield cargo(code="c10", desc="b", quantity=True, category="y")  # True == 1.0
    yield ("delete", "cargo", 3)  # the bucket is spelled True now
    for index in range(17):  # desc crosses max_distinct (16) upward ...
        yield cargo(code=f"k{index}", desc=f"k{index}", quantity=3, category="z")
    for instance in store.instances("cargo"):  # ... and back down
        if instance.values.get("category") == "z":
            yield ("delete", "cargo", instance.oid)
    yield ("edit", "cargo", 4, "quantity", 77)  # in place: seen after a rebuild
    yield ("refused", "supplier", {"name": "s1", "rating": "A"})
    yield ("insert", "supplier", {"name": "s2", "rating": 3})
    yield ("refused", "supplier", 1, {"rating": "A"})
    for instance in store.instances("cargo"):  # an extent emptied to zero
        yield ("delete", "cargo", instance.oid)
    yield cargo(code="c11", desc="a", quantity=4, category="x")


def _edge_schedule(store, durability):
    for op in _edges(store):
        kind, class_name, *args = op
        if kind == "insert":
            store.insert(class_name, args[0])
        elif kind == "update":
            store.update(class_name, *args)
        elif kind == "delete":
            store.delete(class_name, args[0])
        elif kind == "refused":
            version = store.version
            with pytest.raises(StorageError, match="expects a number"):
                if len(args) == 1:
                    store.insert(class_name, args[0])
                else:
                    store.update(class_name, *args)
            assert store.version == version
        else:
            oid, name, value = args
            store.get(class_name, oid).values[name] = value
            store.rebuild_indexes()
            kind = "rebuild"
        durability.commit()
        yield kind


def _seeded_schedule(seed):
    def schedule(store, durability):
        rng = random.Random(f"summaries-{seed}")
        for _ in range(40):
            yield _step(rng, store, durability)

    return schedule


SCHEDULES = {f"seed{seed}": _seeded_schedule(seed) for seed in range(4)}
SCHEDULES["edges"] = _edge_schedule


@pytest.mark.parametrize("shard_count", [1, 2])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_summaries_equal_the_scans_after_every_step(
    tmp_path, schema, shard_count, schedule
):
    durability = DurabilityManager(str(tmp_path), fsync_policy="off")
    store, _ = durability.open(ObjectStore(schema, shard_count=shard_count))
    replica = ObjectStore(schema, shard_count=3 - shard_count)
    for step, kind in enumerate(SCHEDULES[schedule](store, durability)):
        assert_summaries_are_the_scans(store)
        # Journal replay keeps the replica's summaries, built at its first
        # check (re-snapshotted across a rebuild, which the journal cannot
        # bridge).
        delta = store.journal_since(replica.version)
        if delta is None:
            replica = ObjectStore.restore(
                schema, store.snapshot_header(), list(store.snapshot_rows())
            )
        else:
            replica.apply_journal(delta)
        assert_summaries_are_the_scans(replica)
        if step % 10 == 9:
            assert_summaries_are_the_scans(
                ObjectStore.restore(
                    schema, store.snapshot_header(), list(store.snapshot_rows())
                )
            )
        if kind == "rebuild":
            # In-place edits never reached the WAL: give recovery a
            # snapshot that holds them, as a serving process would.
            durability.snapshot()
    # Kill: no close, no final snapshot — recover from snapshot + WAL tail.
    durability.flush()
    recovered, report = recover(str(tmp_path), schema, shard_count=shard_count)
    assert report.final_version == store.version
    assert_summaries_are_the_scans(recovered)
    durability.close()


def test_summaries_cost_nothing_until_read(schema):
    store = ObjectStore(schema)
    for index in range(20):
        store.insert(
            "cargo",
            {"code": f"c{index}", "desc": "d", "quantity": index, "category": "g"},
        )
    assert store._summaries == {}
    store.statistics()
    summary = store.value_summary("cargo")
    assert summary._witnesses == {}  # statistics never ask for witnesses
    DynamicRuleDeriver(schema).derive(store, ["cargo"])
    # Only the sources under max_distinct (16) got witness tables.
    assert {source for source, _ in summary._witnesses} == {"desc", "category"}
    store.rebuild_indexes()
    assert store._summaries == {}


@pytest.mark.parametrize(
    "value",
    # Not a value a summary can count (unhashable, not equal to itself) or
    # one a reply can carry exactly (beyond 64 bits, not finite, not UTF-8).
    [[1, 2], {"a": 1}, float("nan"), float("inf"), float("-inf"), 2**64, -(2**63) - 1,
     "\ud800"],
)
def test_a_value_no_summary_can_count_is_refused(schema, value):
    name = "desc" if isinstance(value, str) else "quantity"
    store = ObjectStore(schema)
    store.insert("cargo", {"code": "c1", "quantity": 1})
    store.statistics()
    version = store.version
    with pytest.raises(StorageError, match="cannot hold"):
        store.insert("cargo", {"code": "c2", name: value})
    with pytest.raises(StorageError, match="cannot hold"):
        store.update("cargo", 1, {name: value})
    assert store.version == version
    assert store.statistics() == DatabaseStatistics.collect(schema, store)
    # A row that enters without a write meets the same rule, whichever op
    # carries it: a replayed insert or update, a snapshot row, an in-place
    # edit that a rebuild would index.  Each refusal names the row.
    for record in (
        MutationRecord(version + 1, "insert", "cargo", 7, {name: value}),
        MutationRecord(version + 1, "update", "cargo", 1, {name: value}),
    ):
        with pytest.raises(StorageError, match="cannot hold"):
            store.apply_journal([record])
    rows = list(store.snapshot_rows()) + [("cargo", 7, {name: value})]
    with pytest.raises(StorageError, match="cargo#7"):
        ObjectStore.restore(schema, store.snapshot_header(), rows)
    store.get("cargo", 1).values[name] = value
    with pytest.raises(StorageError, match="cargo#1"):
        store.rebuild_indexes()
    assert store.version == version and store.count("cargo") == 1


def test_writes_keep_the_summary_they_found(schema):
    """No write drops a summary it can count: shared values, deletes, updates."""
    store = ObjectStore(schema, shard_count=2)
    for index in range(12):
        store.insert(
            "cargo",
            {"code": f"c{index}", "desc": f"d{index % 3}", "quantity": index % 4},
        )
    summary = store.value_summary("cargo")
    store.insert("cargo", {"code": "c12", "desc": "d0", "quantity": 0})
    for oid in (7, 1, 4):  # rows in the middle, at the front, and after
        store.update("cargo", oid, {"desc": "d1", "quantity": 2})
    for oid in (10, 2, 13):
        store.delete("cargo", oid)
    assert store.value_summary("cargo") is summary
    assert [row.oid for row in summary.holders["desc"]["d1"]] == [1, 4, 5, 7, 8, 11]
    assert_summaries_are_the_scans(store)


def test_an_update_repairs_a_value_edited_in_place(schema):
    """An unhashable value written around update() cannot half-apply a write."""
    store = ObjectStore(schema)
    store.insert("cargo", {"code": "c1", "quantity": 1, "collects": 1})
    store.insert("cargo", {"code": "c2", "quantity": 2})
    store.statistics()
    store.get("cargo", 1).values["quantity"] = [1]
    store.update("cargo", 1, {"quantity": 3, "collects": 2})
    assert store.referrer_oids("cargo", "collects") == {2: 1}
    assert_summaries_are_the_scans(store)
