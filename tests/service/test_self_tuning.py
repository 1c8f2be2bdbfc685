"""Service-level integration of the self-tuning feedback loop.

Correctness contract: self-tuning changes *which plans are cheap*, never
*which rows come back* — every observable tuning change (index
create/drop, rule demotion) bumps a generation that rides in the
cache epochs, so results priced under the old state age out instead of
being served as current.
"""

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


def test_hot_unindexed_attribute_gets_auto_indexed(setup):
    service = _build_service(setup)
    try:
        manager = service.enable_self_tuning(
            TuningConfig(
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
            TuningConfig(auto_index=False, min_trials=1)
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
            TuningConfig(auto_index=False, ab_interval=2)
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
        assert payload["tuning"]["enabled"] == {"index": True, "rules": True}
    finally:
        service.close()


def test_batched_executions_advise_on_the_same_cadence(setup):
    """``execute_many`` checks the cadences after every execution, as
    ``execute`` does: 5 queries x 8 rounds with advice every 8 executions
    run 5 advice passes either way, not once per batch that happens to
    end on a multiple of 8."""
    queries = setup.queries[:5]
    passes = []
    for batched in (False, True):
        service = _build_service(setup)
        try:
            manager = service.enable_self_tuning(
                TuningConfig(learn_rules=False, advice_interval=8)
            )
            calls = []
            advise = service._apply_index_advice

            def counting_advice():
                calls.append(manager.snapshot()["executions_observed"])
                advise()

            service._apply_index_advice = counting_advice
            for _ in range(8):
                if batched:
                    service.execute_many(queries, execution_mode="vectorized")
                else:
                    for query in queries:
                        service.execute(query, execution_mode="vectorized")
            assert manager.snapshot()["executions_observed"] == 40
            assert calls == [8, 16, 24, 32, 40]
            passes.append(len(calls))
        finally:
            service.close()
    assert passes == [5, 5]


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
            TuningConfig(auto_index=False, ab_interval=2)
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
