"""Counter parity between the row-wise and vectorized engines.

Table 4.2 and Figure 4.1 report costs derived from ``ExecutionMetrics``
counters; those numbers may not depend on which engine executed the
workload.  These tests pin, on the shared fixture database and on a
generated DB1 instance, that every counter — instances_retrieved,
predicate_evaluations, pointer_traversals, index_lookups, rows_output —
agrees between engines for the same plan, for both join strategies, for
original and optimized queries alike.
"""

import pytest

from repro.constraints import Predicate
from repro.engine import (
    ConventionalPlanner,
    CostModel,
    ParallelExecutor,
    QueryExecutor,
    VectorizedExecutor,
)
from repro.query import Query
from repro.service import OptimizationService


def fixture_queries():
    """Hand-written queries covering scans, traversals and cross filters."""
    return [
        Query(
            projections=("cargo.code",),
            selective_predicates=(Predicate.equals("cargo.desc", "frozen food"),),
            classes=("cargo",),
        ),
        Query(
            projections=("cargo.code", "vehicle.vehicle_no"),
            selective_predicates=(Predicate.equals("cargo.desc", "frozen food"),),
            relationships=("collects",),
            classes=("cargo", "vehicle"),
        ),
        Query(
            projections=("supplier.name", "cargo.code", "vehicle.vehicle_no"),
            selective_predicates=(
                Predicate.selection("cargo.quantity", ">=", 52),
                Predicate.equals("supplier.region", "west"),
            ),
            relationships=("collects", "supplies"),
            classes=("supplier", "cargo", "vehicle"),
        ),
        Query(
            projections=("cargo.code",),
            join_predicates=(
                Predicate.comparison("cargo.quantity", ">=", "vehicle.class"),
            ),
            relationships=("collects",),
            classes=("cargo", "vehicle"),
        ),
    ]


@pytest.mark.parametrize("join_strategy", ["hash", "nested_loop"])
def test_counters_agree_on_fixture_database(
    seeded_logistics_database, join_strategy
):
    schema, store, statistics = seeded_logistics_database
    planner = ConventionalPlanner(schema, statistics)
    rowwise = QueryExecutor(schema, store, join_strategy=join_strategy)
    vectorized = VectorizedExecutor(schema, store, join_strategy=join_strategy)
    parallel = ParallelExecutor(
        schema, store, join_strategy=join_strategy, workers=2, min_partition_rows=1
    )
    try:
        for query in fixture_queries():
            plan = planner.plan(query)
            row_result = rowwise.execute_plan(plan)
            for executor in (vectorized, parallel):
                result = executor.execute_plan(plan)
                assert result.metrics.as_dict() == row_result.metrics.as_dict(), (
                    f"counter divergence for {query} on {executor.mode.value}"
                )
                assert result.rows == row_result.rows
    finally:
        parallel.close()


def test_specific_counters_pinned(seeded_logistics_database):
    """The headline counters of the ISSUE, pinned explicitly."""
    schema, store, statistics = seeded_logistics_database
    planner = ConventionalPlanner(schema, statistics)
    plan = planner.plan(fixture_queries()[1])
    parallel = ParallelExecutor(schema, store, workers=2, min_partition_rows=1)
    try:
        for executor in (
            QueryExecutor(schema, store),
            VectorizedExecutor(schema, store),
            parallel,
        ):
            metrics = executor.execute_plan(plan).metrics
            assert metrics.rows_output == 2
            assert metrics.index_lookups == 1
            assert metrics.pointer_traversals == 2
    finally:
        parallel.close()


def test_counters_agree_on_generated_workload(small_setup):
    """Engine-independence over a generated DB1 workload, optimized included."""
    setup = small_setup
    service = OptimizationService(
        setup.schema,
        repository=setup.repository,
        cost_model=setup.cost_model,
    )
    planner = ConventionalPlanner(setup.schema, setup.statistics)
    cost_model = CostModel(setup.schema, setup.statistics)
    rowwise = QueryExecutor(setup.schema, setup.store, join_strategy="nested_loop")
    vectorized = VectorizedExecutor(
        setup.schema, setup.store, join_strategy="nested_loop"
    )
    for query in setup.queries:
        for candidate in (query, service.optimize(query).optimized):
            plan = planner.plan(candidate)
            row_metrics = rowwise.execute_plan(plan).metrics
            vec_metrics = vectorized.execute_plan(plan).metrics
            assert vec_metrics.as_dict() == row_metrics.as_dict()
            # Same counters => same scalar measured cost, which is the
            # quantity Table 4.2 buckets.
            assert cost_model.measured_cost(vec_metrics) == pytest.approx(
                cost_model.measured_cost(row_metrics)
            )
