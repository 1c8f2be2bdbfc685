"""Unit tests for the SelfTuningManager loop."""

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
def test_advice_cadence_is_counter_based():
    manager = SelfTuningManager(TuningConfig(advice_interval=5))
    query = _query()
    assert manager.due_advice() is False  # nothing observed yet
    for i in range(1, 17):
        manager.observe_execution(query)
        # Deterministic, no wall clock involved.
        assert manager.due_advice() is (i % 5 == 0)
    # A component switched off is never due.
    off = SelfTuningManager(TuningConfig(auto_index=False, advice_interval=1))
    off.observe_execution(query)
    assert off.due_advice() is False


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
    manager.observe_execution(_query())
    snapshot = manager.snapshot()
    assert snapshot["enabled"] == {"index": False, "rules": True}
    assert snapshot["executions_observed"] == 1
    assert set(snapshot) == {
        "enabled",
        "generation",
        "executions_observed",
        "advisor",
        "rules",
    }
