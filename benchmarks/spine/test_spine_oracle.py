"""Self-test of the independent checker: it must see what it is there to see.

Corrupt one expected row and the answers check reports a failed op;
acknowledge one write that never reached the log and the durability
check reports a lost write.  Uncorrupted, both report nothing.
"""

from inputs import TOY, WRITE_CLASS, WriteStream
from oracle import AnswerOracle, WriteLedger, canonical_rows, check_durability, rows_of
from workloads import WORKLOADS

from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.durability import DurabilityManager
from repro.service import OptimizationService


def test_canonical_rows_are_projected_distinct_and_sorted():
    rows = [
        {"a.x": 2, "a.y": "q", "b.z": [1, 2]},
        {"a.x": 1, "a.y": "q", "b.z": [3]},
        {"a.x": 2, "a.y": "q", "b.z": [9]},  # duplicate once projected
    ]
    assert canonical_rows(rows, ["a.x", "a.y"]) == ['[1, "q"]', '[2, "q"]']


def test_one_corrupted_expected_row_is_a_failed_op():
    workload = WORKLOADS["execute_scan"]
    inputs = workload.inputs(3, TOY)
    state = workload.setup(inputs, TOY)
    try:
        clean = workload.check(state, inputs)
        assert clean.checked == len(inputs.queries) and clean.failed == 0
        text, query = next(
            item for item in inputs.queries
            if inputs.oracle.expected(*item).row_count > 0
        )
        inputs.oracle.expected(text, query).answer[0] = '["corrupted"]'
        corrupted = workload.check(state, inputs)
    finally:
        workload.teardown(state)
    assert corrupted.failed == 1
    assert corrupted.failed / corrupted.checked > 0
    assert text in corrupted.problems[0]


def test_one_unlogged_acked_write_is_a_lost_write(tmp_path):
    setup = build_evaluation_setup(TABLE_4_1_SPECS["DB1"], query_count=1)
    oracle = AnswerOracle(TABLE_4_1_SPECS["DB1"])
    service = OptimizationService(
        setup.schema, repository=setup.repository, store=setup.store
    )
    manager = DurabilityManager(str(tmp_path / "data"), fsync_policy="always")
    manager.open(setup.store)
    service.attach_durability(manager)
    initial = rows_of(oracle.store, WRITE_CLASS)
    ledger = WriteLedger(WRITE_CLASS, initial, setup.store.version)
    stream = WriteStream(3, 0, setup.schema, initial)
    try:
        values, bump = stream.next_cycle()
        oid = service.mutate("insert", WRITE_CLASS, values=values).oids[0]
        ledger.ack("insert", oid, values)
        service.mutate("update", WRITE_CLASS, oid=oid, values=bump)
        ledger.ack("update", oid, bump)
    finally:
        service.close()
        manager.close()

    clean = check_durability(str(tmp_path / "data"), setup.schema, ledger)
    assert clean.lost == 0 and clean.replayed_frames == 2
    assert clean.recovered_version == ledger.version

    # An ack for a write the server never logged: the ledger now expects a
    # row (and a version) the recovered store cannot have.
    ledger.ack("insert", oid + 1, values)
    lost = check_durability(str(tmp_path / "data"), setup.schema, ledger)
    assert lost.lost == 1

    # A delete acked but never logged leaves a row the ledger says is gone.
    ledger.ack("delete", oid + 1)
    ledger.ack("delete", oid)
    assert check_durability(str(tmp_path / "data"), setup.schema, ledger).lost == 1
