"""Unit tests for the object store."""

import pytest

from repro.data import build_evaluation_schema
from repro.engine import ObjectStore, StorageError


@pytest.fixture()
def store():
    return ObjectStore(build_evaluation_schema())


def test_insert_assigns_oids_and_counts(store):
    first = store.insert("cargo", {"desc": "frozen food"})
    second = store.insert("cargo", {"desc": "textiles"})
    assert first.oid == 1 and second.oid == 2
    assert store.count("cargo") == 2
    assert store.total_instances() == 2
    assert store.counts()["cargo"] == 2
    assert store.has_class("cargo") and not store.has_class("warehouse")


def test_insert_validates_class_and_attributes(store):
    with pytest.raises(StorageError):
        store.insert("warehouse", {})
    with pytest.raises(StorageError):
        store.insert("cargo", {"colour": "red"})


def test_get_update_delete(store):
    instance = store.insert("cargo", {"desc": "frozen food", "quantity": 10})
    assert store.get("cargo", instance.oid) is instance
    store.update("cargo", instance.oid, {"quantity": 20})
    assert store.get("cargo", instance.oid).values["quantity"] == 20
    store.delete("cargo", instance.oid)
    assert store.get("cargo", instance.oid) is None
    with pytest.raises(StorageError):
        store.delete("cargo", instance.oid)
    with pytest.raises(StorageError):
        store.update("cargo", instance.oid, {"quantity": 1})


def test_update_maintains_indexes(store):
    instance = store.insert("cargo", {"desc": "frozen food"})
    from repro.constraints import Predicate

    assert store.indexes.lookup(Predicate.equals("cargo.desc", "frozen food")) == [
        instance.oid
    ]
    store.update("cargo", instance.oid, {"desc": "textiles"})
    assert store.indexes.lookup(Predicate.equals("cargo.desc", "frozen food")) == []
    assert store.indexes.lookup(Predicate.equals("cargo.desc", "textiles")) == [
        instance.oid
    ]


def test_insert_many(store):
    rows = [{"desc": f"cargo {i}"} for i in range(5)]
    instances = store.insert_many("cargo", rows)
    assert len(instances) == 5
    assert store.count("cargo") == 5


def test_dereference_and_referrers(store):
    vehicle = store.insert("vehicle", {"desc": "van"})
    cargo = store.insert("cargo", {"desc": "frozen food", "collects": vehicle.oid})
    assert store.dereference(cargo, "collects", "vehicle") is vehicle
    assert store.referrer_map("cargo", "collects") == {vehicle.oid: [cargo]}
    # List-valued pointers (what every generated store holds), a repeated
    # OID, an unlinked instance; each list in extent order.
    lorry = store.insert("vehicle", {"desc": "lorry"})
    bulk = store.insert(
        "cargo", {"desc": "bulk", "collects": [lorry.oid, vehicle.oid, lorry.oid]}
    )
    store.insert("cargo", {"desc": "unlinked"})
    referrers = store.referrer_map("cargo", "collects")
    assert referrers == {vehicle.oid: [cargo, bulk], lorry.oid: [bulk]}
    assert referrers[vehicle.oid][1] is bulk
    assert store.referrer_map("warehouse", "collects") == {}
    # The scan reads ``values`` as they are: a pointer spoiled in place
    # (the write path rejects one) raises out of ``pointer_oids``.
    store.insert("cargo", {"desc": "broken"}).values["collects"] = "not an oid"
    with pytest.raises(TypeError):
        store.referrer_map("cargo", "collects")


def test_pointer_oids_handles_lists(store):
    vehicle_a = store.insert("vehicle", {"desc": "van"})
    vehicle_b = store.insert("vehicle", {"desc": "lorry"})
    cargo = store.insert(
        "cargo", {"desc": "bulk", "collects": [vehicle_a.oid, vehicle_b.oid]}
    )
    assert cargo.pointer_oids("collects") == [vehicle_a.oid, vehicle_b.oid]
    assert cargo.pointer("collects") == vehicle_a.oid
    assert cargo.pointer_oids("supplies") == []


def test_pointer_type_errors(store):
    cargo = store.insert("cargo", {"desc": "bulk"})
    cargo.values["collects"] = "not an oid"
    with pytest.raises(TypeError):
        cargo.pointer_oids("collects")


@pytest.mark.parametrize(
    "pointer", ["not an oid", 1.5, True, [1, "2"], (1, None), {"oid": 1}]
)
def test_malformed_pointer_is_a_clean_write_error(store, pointer):
    """A non-OID pointer never enters the store, the journal or a replica."""
    from repro.engine.storage import MutationRecord

    vehicle = store.insert("vehicle", {"desc": "van"})
    cargo = store.insert("cargo", {"desc": "bulk", "collects": vehicle.oid})
    before = (store.version, store.journal_since(0), dict(cargo.values))
    with pytest.raises(StorageError, match="cargo.collects"):
        store.insert("cargo", {"desc": "broken", "collects": pointer})
    with pytest.raises(StorageError, match="cargo.collects"):
        store.update("cargo", cargo.oid, {"collects": pointer})
    assert (store.version, store.journal_since(0), cargo.values) == before
    assert store.count("cargo") == 1
    assert store.referrer_oids("cargo", "collects") == {vehicle.oid: cargo.oid}
    # A journal record or a snapshot row that carries one names the row.
    record = MutationRecord(store.version + 1, "insert", "cargo", 7, {"collects": pointer})
    with pytest.raises(StorageError, match="cargo#7"):
        store.apply_journal([record])
    assert store.count("cargo") == 1 and store.version == before[0]
    rows = list(store.snapshot_rows()) + [("cargo", 7, {"collects": pointer})]
    with pytest.raises(StorageError, match="cargo#7"):
        ObjectStore.restore(store.schema, store.snapshot_header(), rows)
    # Spoiled in place, it is refused by the rebuild that would index it.
    cargo.values["collects"] = pointer
    with pytest.raises(StorageError, match=f"cargo#{cargo.oid}"):
        store.rebuild_indexes()
    assert store.version == before[0] and store.journal_since(0) == before[1]
    # Well-formed pointers: None, an OID, a list or tuple of OIDs (dangling
    # OIDs included — the store does not check that a target exists).
    for value in (None, 99, [vehicle.oid, 99], (vehicle.oid,), []):
        store.update("cargo", cargo.oid, {"collects": value})


def test_qualified_values_and_copy(store):
    cargo = store.insert("cargo", {"desc": "bulk", "quantity": 4})
    qualified = cargo.qualified_values()
    assert qualified["cargo.desc"] == "bulk"
    clone = cargo.copy()
    clone.values["desc"] = "other"
    assert cargo.values["desc"] == "bulk"
    assert cargo.matches({"desc": "bulk"}) and not cargo.matches({"desc": "x"})


# ----------------------------------------------------------------------
# Mutation journal (replica catch-up for the parallel engine's workers)
# ----------------------------------------------------------------------
def test_journal_records_and_replays_mutations(store):
    schema = store.schema
    replica = ObjectStore(schema)
    first = store.insert("cargo", {"desc": "frozen food", "quantity": 10})
    store.insert("cargo", {"desc": "textiles", "quantity": 20})
    store.update("cargo", first.oid, {"quantity": 15})
    delta = store.journal_since(replica.version)
    assert [record.op for record in delta] == ["insert", "insert", "update"]
    assert replica.apply_journal(delta) == 3
    assert replica.version == store.version
    assert replica.shard_versions() == store.shard_versions()
    assert replica.get("cargo", first.oid).values == first.values
    # Replay is idempotent: an overlapping batch applies nothing twice.
    assert replica.apply_journal(delta) == 0
    store.delete("cargo", first.oid)
    assert replica.apply_journal(store.journal_since(replica.version)) == 1
    assert replica.get("cargo", first.oid) is None
    # The replica continues assigning fresh OIDs above the replayed ones.
    assert replica.insert("cargo", {"desc": "late"}).oid == store.insert(
        "cargo", {"desc": "late"}
    ).oid


def test_journal_since_reports_unbridgeable_gaps():
    store = ObjectStore(build_evaluation_schema(), journal_limit=4)
    for i in range(8):
        store.insert("cargo", {"desc": f"row {i}"})
    assert store.journal_since(store.version) == []
    assert len(store.journal_since(store.version - 4)) == 4
    assert store.journal_since(0) is None  # bounded retention overflow
    # An index rebuild after un-journaled in-place repairs truncates the
    # journal entirely: nothing since before it can be bridged — not even
    # a replica at the *exact* post-rebuild version, whose rows may have
    # diverged through the un-journaled repairs (regression: this used to
    # return [] and silently keep stale rows).
    version = store.version
    store.rebuild_indexes()
    assert store.journal_since(version) is None
    assert store.journal_since(store.version) is None


def test_journal_since_rejects_future_versions():
    # A replica *ahead* of the store (e.g. the primary lost un-fsynced WAL
    # tail frames in a crash) must not be told it is caught up (regression:
    # this used to return [] for version > store.version).
    store = ObjectStore(build_evaluation_schema())
    store.insert("cargo", {"desc": "row"})
    assert store.journal_since(store.version) == []
    assert store.journal_since(store.version + 1) is None
    assert store.journal_since(store.version + 100) is None


def test_journal_boundary_after_eviction_stays_bridgeable():
    # The eviction floor is *inclusive*: a replica at exactly the floor
    # version can still catch up, because the record that advanced the
    # store to the floor version was journaled before being popped.
    store = ObjectStore(build_evaluation_schema(), journal_limit=4)
    for i in range(8):
        store.insert("cargo", {"desc": f"row {i}"})
    floor = store.version - 4
    delta = store.journal_since(floor)
    assert [record.seq for record in delta] == list(
        range(floor + 1, store.version + 1)
    )
    assert store.journal_since(floor - 1) is None


def test_journal_replay_preserves_index_answers():
    from repro.constraints.predicate import ComparisonOperator, Predicate

    schema = build_evaluation_schema()
    store = ObjectStore(schema, shard_count=3)
    replica = ObjectStore(schema, shard_count=3)
    for i in range(9):
        store.insert("cargo", {"desc": "frozen food", "quantity": 100 + i})
    store.update("cargo", 2, {"quantity": 300})
    store.delete("cargo", 5)
    replica.apply_journal(store.journal_since(0))
    predicate = Predicate.selection(
        "cargo.quantity", ComparisonOperator.GE, 104
    )
    assert replica.indexes.lookup(predicate) == store.indexes.lookup(predicate)


def test_wrong_typed_indexed_value_is_rejected_atomically(store):
    store.insert("cargo", {"code": "C0", "desc": "frozen food", "quantity": 1})
    version = store.version
    # 'code' is an indexed string attribute: an int value must be rejected
    # BEFORE any state changes (a mid-index TypeError would leave the
    # extent and the indexes disagreeing with no version bump).
    with pytest.raises(StorageError, match="expects a string"):
        store.insert("cargo", {"code": 1})
    with pytest.raises(StorageError, match="expects a number"):
        store.insert("vehicle", {"vehicle_no": "V0", "class": "two"})
    with pytest.raises(StorageError, match="expects a string"):
        store.update("cargo", 1, {"desc": 7})
    # A non-indexed attribute meets the same domain rule: a string in the
    # numeric 'quantity' would break the statistics every optimize reads.
    with pytest.raises(StorageError, match="expects a number"):
        store.update("cargo", 1, {"quantity": "many"})
    with pytest.raises(StorageError, match="expects a string"):
        store.insert("cargo", {"code": "C1", "category": True})
    assert store.count("cargo") == 1
    assert store.version == version
    assert store.journal_since(version) == []
