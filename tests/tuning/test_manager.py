"""Unit tests for the SelfTuningManager loop."""

from repro.engine.executor import ExecutionMetrics
from repro.query import parse_query
from repro.tuning import SelfTuningManager, TuningConfig


def _query():
    return parse_query(
        "(SELECT {cargo.code} { } {cargo.quantity = 110} { } {cargo})",
        name="tuning-unit",
    )


# ----------------------------------------------------------------------
# Cadence and generation discipline
# ----------------------------------------------------------------------
def test_calibration_cadence_is_counter_based():
    manager = SelfTuningManager(
        TuningConfig(calibrate_interval=8, advice_interval=5, min_samples=4)
    )
    metrics = ExecutionMetrics(instances_retrieved=100, rows_output=10)
    query = _query()
    assert manager.due_advice() is False  # nothing observed yet
    for i in range(1, 17):
        manager.observe_execution(query, metrics, 1e-4)
        # Deterministic, no wall clock involved; each on its own interval.
        assert manager.due_calibration() is (i % 8 == 0)
        assert manager.due_advice() is (i % 5 == 0)
    # A component switched off is never due.
    off = SelfTuningManager(
        TuningConfig(
            calibrate=False, auto_index=False, calibrate_interval=1, advice_interval=1
        )
    )
    off.observe_execution(query, metrics, 1e-4)
    assert off.due_calibration() is False and off.due_advice() is False


def test_calibrate_swaps_weights_and_bumps_generation():
    manager = SelfTuningManager(TuningConfig(min_samples=4))
    query = _query()
    for i in range(24):
        metrics = ExecutionMetrics(
            instances_retrieved=50 + 13 * i,
            predicate_evaluations=10 * i,
            rows_output=5 + i,
        )
        wall = 5e-6 * metrics.instances_retrieved + 2.5e-7 * metrics.rows_output
        manager.observe_execution(query, metrics, wall)
    generation = manager.generation
    report = manager.calibrate()
    assert report is not None
    assert manager.generation == generation + 1
    assert manager.weight_swaps == 1
    assert manager.last_calibration is report
    # Too few samples refuse to fit and leave the generation be.
    fresh = SelfTuningManager(TuningConfig())
    before = fresh.generation
    assert fresh.calibrate() is None
    assert fresh.generation == before
    assert fresh.weight_swaps == 0


def test_ab_sampling_is_one_in_n():
    manager = SelfTuningManager(TuningConfig(ab_interval=4))
    picks = [manager.should_sample_ab() for _ in range(12)]
    assert picks == [True, False, False, False] * 3


def test_ab_sampling_disabled_without_learn_rules():
    manager = SelfTuningManager(TuningConfig(learn_rules=False))
    assert not any(manager.should_sample_ab() for _ in range(10))


def test_observe_ab_bumps_generation_on_demotion_change():
    manager = SelfTuningManager(
        TuningConfig(min_trials=2, demote_threshold=0.5)
    )
    generation = manager.generation
    assert manager.observe_ab([("c1", (1,))], 10.0, 5.0) is False
    assert manager.generation == generation
    assert manager.observe_ab([("c1", (1,))], 10.0, 5.0) is True
    assert manager.generation == generation + 1
    assert manager.is_demoted("c1")


def test_index_applied_bumps_generation():
    from repro.tuning import IndexAction

    manager = SelfTuningManager(TuningConfig())
    generation = manager.generation
    manager.index_applied(IndexAction("create", "cargo", "quantity", 20.0))
    assert manager.generation == generation + 1


def test_snapshot_shape():
    manager = SelfTuningManager(TuningConfig(auto_index=False))
    manager.observe_execution(_query(), ExecutionMetrics(instances_retrieved=1), 1e-6)
    snapshot = manager.snapshot()
    assert snapshot["enabled"] == {
        "calibrate": True,
        "index": False,
        "rules": True,
    }
    assert snapshot["executions_observed"] == 1
    assert set(snapshot) >= {"generation", "calibrator", "advisor", "rules"}
