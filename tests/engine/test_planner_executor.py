"""Integration tests for the planner, executor and cost model."""

from dataclasses import replace

import pytest

from repro.constraints import Predicate
from repro.engine import (
    ConventionalPlanner,
    CostModel,
    PlanningError,
    QueryExecutor,
)
from repro.query import Query


@pytest.fixture(scope="module")
def database(seeded_logistics_database):
    """The shared seeded logistics database (see tests/conftest.py)."""
    return seeded_logistics_database


def two_class_query():
    return Query(
        projections=("cargo.code", "vehicle.vehicle_no"),
        selective_predicates=(Predicate.equals("cargo.desc", "frozen food"),),
        relationships=("collects",),
        classes=("cargo", "vehicle"),
    )


def test_single_class_plan_and_execution(database):
    schema, store, statistics = database
    query = Query(
        projections=("cargo.code",),
        selective_predicates=(Predicate.equals("cargo.desc", "frozen food"),),
        classes=("cargo",),
    )
    planner = ConventionalPlanner(schema, statistics)
    plan = planner.plan(query)
    assert plan.uses_index()
    result = QueryExecutor(schema, store).execute_plan(plan)
    assert result.row_count == 2
    assert result.metrics.index_lookups == 1
    assert result.metrics.instances_retrieved == 2


def test_two_class_traversal_execution(database):
    schema, store, statistics = database
    query = replace(
        two_class_query(),
        projections=("cargo.code", "vehicle.vehicle_no", "cargo.desc"),
    )
    executor = QueryExecutor(schema, store)
    result = executor.execute(query)
    assert result.row_count == 2
    for row in result.rows:
        assert row["cargo.desc"] == "frozen food"
        assert list(row) == ["cargo.code", "vehicle.vehicle_no", "cargo.desc"]


def test_nested_loop_strategy_matches_hash_results(database):
    schema, store, _statistics = database
    query = two_class_query()
    hash_result = QueryExecutor(schema, store, join_strategy="hash").execute(query)
    nested = QueryExecutor(schema, store, join_strategy="nested_loop").execute(query)
    def key(row):
        return (row["cargo.code"], row["vehicle.vehicle_no"])

    assert sorted(map(key, hash_result.rows)) == sorted(map(key, nested.rows))
    # The nested-loop strategy retrieves strictly more instances.
    assert (
        nested.metrics.instances_retrieved
        >= hash_result.metrics.instances_retrieved
    )
    with pytest.raises(ValueError):
        QueryExecutor(schema, store, join_strategy="merge")


def test_cross_class_filter(database):
    schema, store, _statistics = database
    query = Query(
        projections=("driver.name",),
        join_predicates=(
            Predicate.comparison("driver.licenseClass", ">=", "vehicle.class"),
        ),
        relationships=("drives",),
        classes=("driver", "vehicle"),
    )
    result = QueryExecutor(schema, store).execute(query)
    assert result.row_count == 0  # no drivers inserted -> empty, but no crash


def test_plan_explain_mentions_nodes(database):
    schema, _store, statistics = database
    planner = ConventionalPlanner(schema, statistics)
    plan = planner.plan(two_class_query())
    text = plan.explain()
    assert "Project" in text and "Traverse" in text
    assert plan.class_order[0] in ("cargo", "vehicle")


def test_disconnected_query_raises(database):
    schema, _store, statistics = database
    planner = ConventionalPlanner(schema, statistics)
    query = Query(
        projections=("cargo.code", "driver.name"),
        classes=("cargo", "driver"),
    )
    with pytest.raises(PlanningError):
        planner.plan(query)


def test_cost_model_estimates_and_measured_costs(database):
    schema, store, statistics = database
    cost_model = CostModel(schema, statistics)
    query = two_class_query()
    estimate = cost_model.price(query).estimate()
    assert estimate.total > 0
    metrics = QueryExecutor(schema, store).execute(query).metrics
    assert cost_model.measured_cost(metrics) > 0


def test_index_scan_is_estimated_cheaper(database):
    schema, _store, statistics = database
    cost_model = CostModel(schema, statistics)

    def scan(predicate):
        query = Query(classes=("cargo",), selective_predicates=(predicate,))
        return cost_model.price(query).class_price("cargo").scan

    indexed = scan(Predicate.equals("cargo.desc", "frozen food"))
    unindexed = scan(Predicate.equals("cargo.category", "general"))
    assert indexed.total < unindexed.total


def test_driver_class_prefers_selective_class(database):
    schema, _store, statistics = database
    cost_model = CostModel(schema, statistics)
    assert cost_model.price(two_class_query()).driver() == "cargo"


def test_plan_required_columns_contract(database):
    """Every node declares the qualified columns it reads."""
    schema, _store, statistics = database
    query = Query(
        projections=("cargo.code", "vehicle.vehicle_no"),
        selective_predicates=(Predicate.equals("cargo.desc", "frozen food"),),
        join_predicates=(
            Predicate.comparison("cargo.quantity", ">=", "vehicle.class"),
        ),
        relationships=("collects",),
        classes=("cargo", "vehicle"),
    )
    plan = ConventionalPlanner(schema, statistics).plan(query)
    columns = set(plan.required_columns())
    # Projections, the scan's (index) predicate, the traversal pointer and
    # the cross-class filter operands must all be declared.
    assert {"cargo.code", "vehicle.vehicle_no", "cargo.desc"} <= columns
    assert "cargo.quantity" in columns and "vehicle.class" in columns
    assert any(column.endswith(".collects") for column in columns)
    # Leaf default: a bare node with no predicates declares nothing.
    from repro.engine import ScanNode

    assert ScanNode(class_name="cargo").required_columns() == ()


def test_planner_mode_does_not_change_plan_shape(database):
    """Both modes must emit structurally identical plans (parity depends on it)."""
    schema, _store, statistics = database
    query = two_class_query()
    rowwise_plan = ConventionalPlanner(
        schema, statistics, execution_mode="rowwise"
    ).plan(query)
    vectorized_plan = ConventionalPlanner(
        schema, statistics, execution_mode="vectorized"
    ).plan(query)
    assert rowwise_plan.root == vectorized_plan.root
    assert rowwise_plan.class_order == vectorized_plan.class_order
    assert rowwise_plan.execution_mode.value == "rowwise"
    assert vectorized_plan.execution_mode.value == "vectorized"
    assert "vectorized batch execution" in vectorized_plan.notes


def test_execution_metrics_merge():
    from repro.engine import ExecutionMetrics

    left = ExecutionMetrics(instances_retrieved=1, predicate_evaluations=2)
    right = ExecutionMetrics(instances_retrieved=3, rows_output=4)
    merged = left.merge(right)
    assert merged.instances_retrieved == 4
    assert merged.rows_output == 4
    assert merged.as_dict()["predicate_evaluations"] == 2
