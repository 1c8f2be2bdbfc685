"""Integration tests for the experiment harness (small parameters)."""

import pytest

from repro.data import DatabaseSpec
from repro.experiments import (
    PAPER_TABLE_4_1,
    run_baseline_ablation,
    run_complexity,
    run_figure_4_1,
    run_grouping_ablation,
    run_priority_ablation,
    run_table_4_1,
    run_table_4_2,
)
from repro.experiments.reporting import (
    format_histogram,
    format_table,
    percentage,
    summarize_series,
)

SMALL_SPECS = {
    "DB1": DatabaseSpec("DB1", class_cardinality=20, relationship_cardinality=30),
    "DB4": DatabaseSpec("DB4", class_cardinality=60, relationship_cardinality=120),
}


def test_table_4_1_matches_paper_shapes():
    result = run_table_4_1(seed=3)
    assert len(result.rows) == 4
    for row in result.rows:
        paper = PAPER_TABLE_4_1[row["database"]]
        assert row["object_classes"] == paper["object_classes"]
        assert row["avg_class_cardinality"] == pytest.approx(
            paper["avg_class_cardinality"]
        )
        assert row["avg_relationship_cardinality"] == pytest.approx(
            paper["avg_relationship_cardinality"]
        )
    assert "DB4" in result.as_table()


def test_figure_4_1_times_grow_with_class_count():
    result = run_figure_4_1(query_count=16, seed=5, repeats=1)
    assert result.points
    assert result.max_transformation_time() < 1.0  # well under a second
    per_class = {}
    for point in result.points:
        per_class.setdefault(point.class_count, []).append(
            point.transformation_time
        )
    means = {
        classes: sum(times) / len(times) for classes, times in per_class.items()
    }
    if len(means) >= 2:
        smallest, largest = min(means), max(means)
        assert means[largest] >= means[smallest]
    assert result.series()
    assert "classes in query" in result.as_table()


def test_table_4_2_produces_buckets_and_preserves_answers():
    result = run_table_4_2(
        specs=SMALL_SPECS, query_count=10, seed=5, check_answers=True
    )
    assert set(result.rows) == {"DB1", "DB4"}
    for row in result.rows.values():
        assert len(row.records) == 10
        assert sum(row.buckets().values()) == 10
        assert row.all_answers_agree
    assert "faster" in result.as_table()


def test_table_4_2_without_overhead_never_exceeds_original():
    result = run_table_4_2(
        specs={"DB1": SMALL_SPECS["DB1"]},
        query_count=8,
        seed=5,
        overhead_units_per_second=0.0,
        check_answers=False,
    )
    row = result.rows["DB1"]
    # Without overhead, the optimizer's decisions only rarely cost anything;
    # allow a small tolerance for cost-model misjudgements.
    assert all(record.ratio <= 1.1 for record in row.records)


def test_complexity_scales_roughly_linearly():
    result = run_complexity(constraint_counts=(8, 16, 32), repeats=1)
    assert len(result.points) == 3
    # The O(m*n) bound is gated in counted calls, not wall seconds, by
    # benchmarks/test_complexity.py::test_complexity_report.
    for point in result.points:
        assert point.fired == point.constraints
    assert "m*n" in result.as_table()


def test_grouping_ablation_reports_all_policies():
    result = run_grouping_ablation(query_count=10, seed=5)
    assert set(result.measurements) == {"arbitrary", "balanced", "least_frequent"}
    for measurement in result.measurements.values():
        assert measurement.fetched >= measurement.relevant
        assert 0.0 <= measurement.precision <= 1.0
    assert "precision" in result.as_table()


def test_priority_ablation_priority_gets_more_index_introductions():
    result = run_priority_ablation(query_count=12, seed=5, budget=1)
    fifo = result.measurements["fifo"]
    priority = result.measurements["priority"]
    assert priority.index_introductions >= fifo.index_introductions
    assert "budget" in result.as_table()


def test_baseline_ablation_tentative_is_order_insensitive():
    result = run_baseline_ablation(query_count=8, seed=5, orderings=2)
    assert result.queries == 8
    assert result.tentative_profitability_checks <= result.baseline_profitability_checks
    assert "order-sensitive" in result.as_table()


def test_reporting_helpers():
    table = format_table(["a", "b"], [[1, 2.5], ["x", "y"]])
    assert "a" in table and "2.50" in table
    histogram = format_histogram({"0%": 2, "10%": 0}, total=2)
    assert "100.0%" in histogram
    assert percentage(1, 4) == 25.0
    assert percentage(1, 0) == 0.0
    stats = summarize_series([1.0, 2.0, 3.0, 4.0])
    assert stats["median"] == pytest.approx(2.5)
    assert summarize_series([]) == {"min": 0.0, "mean": 0.0, "median": 0.0, "max": 0.0}
