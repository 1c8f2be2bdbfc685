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
from repro.service import OptimizationService
from repro.tuning import TuningConfig


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
        manager = service.enable_self_tuning(
            TuningConfig(
                auto_index=False,
                learn_rules=False,
                calibrate_interval=16,
                min_samples=8,
            )
        )
        cost_model = service.optimizer.cost_model
        generation_before = cost_model.weights_generation
        reference = [
            _row_multiset(service.execute(query, execution_mode="rowwise").rows)
            for query in setup.queries
        ]
        for _ in range(8):
            for query in setup.queries:
                service.execute(query, execution_mode="rowwise")
        assert manager.weight_swaps >= 1
        assert cost_model.weights_generation > generation_before
        assert manager.last_calibration is not None
        # Calibrated pricing never changes answers: the same full rows,
        # each as many times, in whatever order the chosen plan yields.
        for query, rows in zip(setup.queries, reference):
            result = service.execute(query, execution_mode="rowwise")
            assert _row_multiset(result.rows) == rows
    finally:
        service.close()


def test_one_fit_pools_every_engines_executions(setup):
    """The cost model holds one weight set, so executions on either engine
    feed one reservoir: 8 row-wise plus 8 vectorized reach a 16-sample
    fit that neither engine's executions reach alone."""
    service = _build_service(setup)
    try:
        manager = service.enable_self_tuning(
            TuningConfig(
                auto_index=False,
                learn_rules=False,
                calibrate_interval=16,
                min_samples=16,
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
