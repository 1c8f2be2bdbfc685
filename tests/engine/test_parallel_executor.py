"""Parallel executor: parity with the in-process engines, fallbacks, pools."""

import os

import pytest

from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.engine import (
    ConventionalPlanner,
    ExecutionMode,
    FilterNode,
    ParallelExecutor,
    PlanNode,
    QueryExecutor,
    QueryPlan,
    ScanNode,
    VectorizedExecutor,
    create_executor,
)
from repro.engine.parallel import _fan_out_leaf, resolve_worker_count


@pytest.fixture(scope="module")
def sharded_setup():
    """A DB1 evaluation setup over a 4-shard store (shared, read-only)."""
    return build_evaluation_setup(
        TABLE_4_1_SPECS["DB1"], query_count=16, seed=11, shard_count=4
    )


def _forced(setup, join_strategy="hash", workers=2):
    """A parallel executor that fans out even on tiny driver sets."""
    return ParallelExecutor(
        setup.schema,
        setup.store,
        join_strategy=join_strategy,
        workers=workers,
        min_partition_rows=1,
    )


@pytest.mark.parametrize("join_strategy", ["hash", "nested_loop"])
def test_rows_and_metrics_match_other_engines(sharded_setup, join_strategy):
    setup = sharded_setup
    planner = ConventionalPlanner(setup.schema, setup.statistics)
    rowwise = QueryExecutor(setup.schema, setup.store, join_strategy=join_strategy)
    vectorized = VectorizedExecutor(
        setup.schema, setup.store, join_strategy=join_strategy
    )
    parallel = _forced(setup, join_strategy)
    try:
        for query in setup.queries:
            plan = planner.plan(query)
            reference = rowwise.execute_plan(plan)
            vec = vectorized.execute_plan(plan)
            par = parallel.execute_plan(plan)
            assert par.rows == reference.rows, query.name
            assert par.rows == vec.rows, query.name
            assert par.metrics.as_dict() == reference.metrics.as_dict(), query.name
    finally:
        parallel.close()


def test_batch_api_matches_single_plan_api(sharded_setup):
    setup = sharded_setup
    planner = ConventionalPlanner(setup.schema, setup.statistics)
    plans = [planner.plan(query) for query in setup.queries]
    parallel = _forced(setup)
    try:
        batched = parallel.execute_plans(plans)
        for plan, result in zip(plans, batched):
            single = parallel.execute_plan(plan)
            assert result.rows == single.rows
            assert result.metrics == single.metrics
    finally:
        parallel.close()


def test_shard_reports_cover_the_driver_partitions(sharded_setup):
    setup = sharded_setup
    planner = ConventionalPlanner(setup.schema, setup.statistics)
    parallel = _forced(setup)
    try:
        fanned = None
        for query in setup.queries:
            result = parallel.execute_plan(planner.plan(query))
            if result.shard_reports is not None:
                fanned = result
                break
        assert fanned is not None, "no query fanned out on the 4-shard store"
        shard_ids = [report.shard_id for report in fanned.shard_reports]
        assert len(shard_ids) == len(set(shard_ids))
        assert all(0 <= shard_id < 4 for shard_id in shard_ids)
        assert all(report.driver_rows > 0 for report in fanned.shard_reports)
        assert all(report.elapsed >= 0.0 for report in fanned.shard_reports)
        assert sum(r.row_count for r in fanned.shard_reports) == len(fanned.rows)
    finally:
        parallel.close()


def test_small_driver_sets_stay_in_process(sharded_setup):
    setup = sharded_setup
    planner = ConventionalPlanner(setup.schema, setup.statistics)
    conservative = ParallelExecutor(
        setup.schema, setup.store, workers=2, min_partition_rows=10_000
    )
    try:
        for query in setup.queries[:4]:
            result = conservative.execute_plan(planner.plan(query))
            assert result.shard_reports is None
        assert conservative._pool is None
    finally:
        conservative.close()


def test_single_worker_never_forks(sharded_setup):
    setup = sharded_setup
    planner = ConventionalPlanner(setup.schema, setup.statistics)
    solo = ParallelExecutor(
        setup.schema, setup.store, workers=1, min_partition_rows=1
    )
    vectorized = VectorizedExecutor(setup.schema, setup.store)
    for query in setup.queries[:4]:
        plan = planner.plan(query)
        result = solo.execute_plan(plan)
        assert result.shard_reports is None
        assert result.rows == vectorized.execute_plan(plan).rows
    assert solo._pool is None


def test_store_mutation_syncs_live_workers_without_reforking(evaluation_schema):
    """A journaled write reaches live workers as a replayed delta."""
    setup = build_evaluation_setup(
        TABLE_4_1_SPECS["DB1"], query_count=6, seed=3, shard_count=2
    )
    planner = ConventionalPlanner(setup.schema, setup.statistics)
    rowwise = QueryExecutor(setup.schema, setup.store)
    parallel = _forced(setup)
    # Generation ends with an index rebuild, which raises the journal floor
    # above the store's version: the journal bridges only workers forked
    # after a later, journaled write.
    setup.store.update("cargo", 2, {"quantity": 7})
    assert setup.store.journal_since(setup.store.version) == []
    try:
        plan = planner.plan(setup.queries[0])
        first = parallel.execute_plan(plan)
        assert first.rows == rowwise.execute_plan(plan).rows
        pids_before = parallel.worker_pids()
        assert pids_before, "the first execution must have forked workers"
        setup.store.insert(
            "cargo",
            {"code": "CNEW", "desc": "late arrival", "quantity": 5,
             "category": "general"},
        )
        setup.store.update("cargo", 1, {"quantity": 9})
        second = parallel.execute_plan(plan)
        # Same worker processes — the mutations were shipped as a journal
        # delta, not by tearing the pool down — and the rows still match
        # the freshly planned row-wise answer over the mutated store.
        assert parallel.worker_pids() == pids_before
        assert second.rows == rowwise.execute_plan(plan).rows
    finally:
        parallel.close()


def test_journal_overflow_reforks_workers_correctly(evaluation_schema):
    """A gap the journal cannot bridge re-forks workers with fresh state."""
    setup = build_evaluation_setup(
        TABLE_4_1_SPECS["DB1"], query_count=6, seed=3, shard_count=2
    )
    planner = ConventionalPlanner(setup.schema, setup.statistics)
    rowwise = QueryExecutor(setup.schema, setup.store)
    parallel = _forced(setup)
    try:
        plan = planner.plan(setup.queries[0])
        parallel.execute_plan(plan)
        pids_before = parallel.worker_pids()
        # Overflow the bounded journal so journal_since() reports a gap.
        store = setup.store
        for i in range(store.journal_limit + 1):
            oid = store.insert(
                "cargo",
                {"code": f"churn{i}", "desc": "churn", "quantity": 1,
                 "category": "general"},
            ).oid
            store.delete("cargo", oid)
        assert store.journal_since(0) is None
        second = parallel.execute_plan(plan)
        assert parallel.worker_pids() != pids_before
        assert second.rows == rowwise.execute_plan(plan).rows
    finally:
        parallel.close()


def test_partition_contract_on_planned_queries(sharded_setup):
    setup = sharded_setup
    planner = ConventionalPlanner(setup.schema, setup.statistics)
    for query in setup.queries:
        plan = planner.plan(query)
        leaf = _fan_out_leaf(plan)
        assert isinstance(leaf, ScanNode)
        assert leaf.class_name == plan.class_order[0]
        assert list(plan.root.walk())[-1] is leaf
    # A node kind outside the chain keeps the plan in-process.
    assert _fan_out_leaf(QueryPlan(root=PlanNode())) is None
    assert _fan_out_leaf(QueryPlan(root=FilterNode(child=PlanNode()))) is None


def test_mode_parsing_factory_and_workers(sharded_setup, monkeypatch):
    """No mode selects this executor; ``workers=None`` is the core count
    capped at 4."""
    setup = sharded_setup
    with pytest.raises(ValueError, match="choose from: rowwise, vectorized"):
        ExecutionMode.parse("parallel")
    with pytest.raises(ValueError, match="unknown execution mode"):
        create_executor(setup.schema, setup.store, mode="parallel")
    executor = ParallelExecutor(setup.schema, setup.store, workers=3)
    assert executor.mode is ExecutionMode.VECTORIZED  # it runs vectorized plans
    assert executor.workers == 3
    executor.close()

    for cores, width in ((None, 1), (1, 1), (2, 2), (4, 4), (16, 4)):
        monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
        assert resolve_worker_count(None) == width
    with pytest.raises(ValueError):
        resolve_worker_count("zero")
    with pytest.raises(ValueError):
        resolve_worker_count(0)
