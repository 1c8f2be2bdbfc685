"""Service-level integration of the self-tuning feedback loop.

Correctness contract: self-tuning changes *which plans are cheap*, never
*which rows come back* — every observable tuning change (weight swap,
index create/drop, rule demotion) bumps a generation that rides in the
cache epochs, so results priced under the old state age out instead of
being served as current.
"""

import json

import pytest

from repro.constraints import ConstraintRepository
from repro.core import OptimizerConfig
from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.query import parse_query
from repro.service import OptimizationService, ResultSource
from repro.tuning import TuningConfig

#: Per-operation seconds a noiseless clock charges an execution's counters.
TRUTH = {
    "instances_retrieved": 4e-6,
    "predicate_evaluations": 6e-8,
    "pointer_traversals": 9e-7,
    "index_lookups": 3e-7,
    "rows_output": 2e-7,
}


def _build_service(setup, **kwargs):
    repository = ConstraintRepository(setup.schema)
    repository.add_all(setup.constraints)
    return OptimizationService(
        setup.schema,
        repository=repository,
        cost_model=setup.cost_model,
        config=OptimizerConfig(record_access_statistics=False),
        store=setup.store,
        **kwargs,
    )


def _noiseless_clock(manager):
    """Feed ``manager`` each execution's counters priced by :data:`TRUTH`
    instead of its wall time (real counters, noiseless clock, as in
    ``tests/tuning/test_calibration_convergence.py``): every due refit then
    clears the calibrator's r² floor, so swaps happen on a fixed cadence
    however loaded the host is."""
    observe = manager.observe_execution

    def observe_priced(query, metrics, _wall_time):
        seconds = sum(rate * getattr(metrics, name) for name, rate in TRUTH.items())
        observe(query, metrics, seconds)

    manager.observe_execution = observe_priced
    return manager


def _row_multiset(rows):
    """Full rows as a sorted multiset: the order rows come back in belongs
    to the plan, and a weight swap may pick a different equivalent one."""
    return sorted(json.dumps(row, sort_keys=True, default=str) for row in rows)


@pytest.fixture()
def setup():
    return build_evaluation_setup(
        TABLE_4_1_SPECS["DB1"], query_count=8, seed=47, shard_count=2
    )


def test_enable_self_tuning_requires_a_store(setup):
    service = OptimizationService(
        setup.schema,
        constraints=setup.constraints,
        config=OptimizerConfig(record_access_statistics=False),
    )
    with pytest.raises(ValueError, match="store"):
        service.enable_self_tuning()


def test_calibration_swaps_weights_and_invalidates_pricing(setup):
    service = _build_service(setup)
    try:
        manager = _noiseless_clock(
            service.enable_self_tuning(
                TuningConfig(
                    auto_index=False,
                    learn_rules=False,
                    calibrate_interval=16,
                    min_samples=8,
                )
            )
        )
        cost_model = service.optimizer.cost_model
        generation_before = manager.generation
        reference = [
            _row_multiset(service.execute(query, execution_mode="rowwise").rows)
            for query in setup.queries
        ]
        for _ in range(8):
            for query in setup.queries:
                service.execute(query, execution_mode="rowwise")
        # 72 executions: refits at 16, 32, 48 and 64, each swapped in.
        assert manager.weight_swaps == 4
        assert manager.generation == generation_before + 4
        assert cost_model.weights == manager.last_calibration.weights
        # The last round ran after the last swap, so its optimizations are
        # cached under the current epoch; the next round ends on a swap
        # (execution 80), and the swap alone makes the cached one stale.
        first = setup.queries[0]
        assert service.optimize(first).source is ResultSource.RESULT_CACHE
        # Calibrated pricing never changes answers: the same full rows,
        # each as many times, in whatever order the chosen plan yields.
        for query, rows in zip(setup.queries, reference):
            result = service.execute(query, execution_mode="rowwise")
            assert _row_multiset(result.rows) == rows
        assert manager.weight_swaps == 5
        assert manager.generation == generation_before + 5
        assert service.optimize(first).source is ResultSource.COMPUTED
        assert service.optimize(first).source is ResultSource.RESULT_CACHE
    finally:
        service.close()


def test_one_fit_pools_every_engines_executions(setup):
    """The cost model holds one weight set, so executions on either engine
    feed one reservoir: 8 row-wise plus 8 vectorized reach a 16-sample
    fit that neither engine's executions reach alone."""
    service = _build_service(setup)
    try:
        manager = _noiseless_clock(
            service.enable_self_tuning(
                TuningConfig(
                    auto_index=False,
                    learn_rules=False,
                    calibrate_interval=16,
                    min_samples=16,
                )
            )
        )
        for mode in ("rowwise", "vectorized"):
            for query in setup.queries:
                service.execute(query, execution_mode=mode)
        assert len(setup.queries) == 8
        assert manager.weight_swaps >= 1
        assert manager.snapshot()["calibrator"]["retained"] == 16
    finally:
        service.close()


def test_hot_unindexed_attribute_gets_auto_indexed(setup):
    service = _build_service(setup)
    try:
        manager = service.enable_self_tuning(
            TuningConfig(
                calibrate=False,
                learn_rules=False,
                advice_interval=8,
                create_threshold=8.0,
                decay_interval=1024,
                min_cardinality=8,
            )
        )
        assert not setup.store.indexes.is_indexed("cargo", "quantity")
        hot = parse_query(
            "(SELECT {cargo.code} { } {cargo.quantity = 110} { } {cargo})",
            name="hot-quantity",
        )
        rows_before = service.execute(hot, optimize=False).rows
        for _ in range(15):
            service.execute(hot, optimize=False)
        # 16 observations with heat 16 >= 8: the advisor created the index
        # through the journaled write path.
        assert setup.store.indexes.is_indexed("cargo", "quantity")
        assert manager.advisor.creates == 1
        assert manager.generation >= 1
        assert service.execute(hot, optimize=False).rows == rows_before
        snapshot = service.stats().tuning
        assert snapshot["advisor"]["managed"] == ["cargo.quantity"]
    finally:
        service.close()


def test_demoted_rule_is_filtered_and_epoch_moves(setup):
    service = _build_service(setup)
    try:
        manager = service.enable_self_tuning(
            TuningConfig(calibrate=False, auto_index=False, min_trials=1)
        )
        query = setup.queries[0]
        first = service.optimize(query)
        used = first.result.trace.constraints_used()
        if not used:  # workload corner: pick any declared rule instead
            used = [service.repository.declared()[0].name]
        epoch_before = service._cache_epoch(query)

        # Force a demotion through the manager (the A/B path feeds this in
        # production; the unit contract is what the service does with it).
        rules = service._rule_epochs(used)
        changed = manager.observe_ab(rules, optimized_cost=10.0, original_cost=5.0)
        assert changed and manager.is_demoted(used[0])

        # The tuning generation rides in the cache epoch: the old cached
        # result is unreachable and the recompute skips the demoted rule.
        assert service._cache_epoch(query) != epoch_before
        again = service.optimize(query)
        assert used[0] not in again.result.trace.constraints_used()
        snapshot = service.stats().tuning
        assert snapshot["rules"]["demoted"] == sorted(
            manager.payoff.demoted()
        )
    finally:
        service.close()


def test_ab_sampling_preserves_answers_and_feeds_payoff(setup):
    service = _build_service(setup)
    baseline = _build_service(
        build_evaluation_setup(
            TABLE_4_1_SPECS["DB1"], query_count=8, seed=47, shard_count=2
        )
    )
    try:
        manager = service.enable_self_tuning(
            TuningConfig(calibrate=False, auto_index=False, ab_interval=2)
        )
        for query in setup.queries:
            tuned = service.execute(query, execution_mode="vectorized")
            plain = baseline.execute(query, execution_mode="vectorized")
            assert tuned.rows == plain.rows
            assert tuned.metrics.as_dict() == plain.metrics.as_dict()
        # Some transformed queries were sampled: the payoff tracker saw
        # real trials (how many depends on which queries fired rules).
        if manager.payoff.trials:
            assert manager.snapshot()["rules"]["trials"] > 0
    finally:
        baseline.close()
        service.close()


def test_stats_payload_round_trips_tuning_block(setup):
    service = _build_service(setup)
    try:
        assert service.stats().tuning is None  # off by default
        service.enable_self_tuning(TuningConfig())
        payload = service.stats().as_dict()
        assert payload["tuning"]["enabled"] == {
            "calibrate": True,
            "index": True,
            "rules": True,
        }
    finally:
        service.close()


def test_batched_executions_refit_on_the_same_cadence(setup):
    """``execute_many`` checks the cadences after every execution, as
    ``execute`` does: 5 queries x 8 rounds with a refit every 8
    executions swap weights 5 times either way, not once per batch that
    happens to end on a multiple of 8."""
    queries = setup.queries[:5]
    swaps = []
    for batched in (False, True):
        service = _build_service(setup)
        try:
            manager = _noiseless_clock(
                service.enable_self_tuning(
                    TuningConfig(
                        auto_index=False,
                        learn_rules=False,
                        calibrate_interval=8,
                        min_samples=8,
                    )
                )
            )
            for _ in range(8):
                if batched:
                    service.execute_many(queries, execution_mode="vectorized")
                else:
                    for query in queries:
                        service.execute(query, execution_mode="vectorized")
            assert manager.snapshot()["executions_observed"] == 40
            swaps.append(manager.weight_swaps)
        finally:
            service.close()
    assert swaps == [5, 5]


def test_batched_executions_take_the_ab_leg(setup):
    """``execute_many`` runs ``execute``'s body, A/B leg included: sampled
    rewrites reach the payoff tracker, and the answers are the untuned
    service's."""
    service = _build_service(setup)
    plain = _build_service(
        build_evaluation_setup(
            TABLE_4_1_SPECS["DB1"], query_count=8, seed=47, shard_count=2
        )
    )
    try:
        manager = service.enable_self_tuning(
            TuningConfig(calibrate=False, auto_index=False, ab_interval=2)
        )
        for _ in range(4):
            tuned = service.execute_many(setup.queries, execution_mode="vectorized")
            untuned = plain.execute_many(setup.queries, execution_mode="vectorized")
            assert [r.rows for r in tuned] == [r.rows for r in untuned]
        assert manager.payoff.trials > 0
        assert manager.snapshot()["rules"]["trials"] == manager.payoff.trials
    finally:
        plain.close()
        service.close()
