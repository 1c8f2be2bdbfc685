"""Smoke test: the spine at toy size prints everything ``BENCHMARK.json`` names.

All four workloads run end to end and traced on DB1 (one round, a few
dozen ops, real ``repro serve`` subprocesses).  Seeds must change the
generated op sequence and repeat it exactly; the query sets, and so
``cost_ratio``, must not depend on the seed.
"""

import json
import math
from pathlib import Path

import pytest
import run
from harness import run_end_to_end
from inputs import TOY
from layers import round_prefix, run_traced
from workloads import WORKLOADS

CONTRACT = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def assert_printed(report, declared, capsys):
    """Every declared metric is printed by name, with its unit and a finite value."""
    run.print_report(report)
    print(run.result_line(report))
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        value = result["metrics"][entry["name"]]
        assert value["unit"] == entry["unit"], entry["name"]
        assert math.isfinite(value["value"]), entry["name"]
        printed = [line for line in lines if line.startswith(entry["name"] + " ")]
        assert printed and f" {entry['unit']} " in printed[0] + " ", entry["name"]
    assert any(line.startswith("failed_share ") and " ratio " in line for line in lines)


def test_contract_names_the_four_workloads_and_seven_metrics():
    assert [entry["name"] for entry in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/spine"]
    assert CONTRACT["command"] == ["python3", "benchmarks/spine/run.py"]
    bounds = {entry["name"]: entry["bound"] for entry in CONTRACT["end_to_end"]}
    assert bounds == {
        "setup_s": 0.1, "throughput_ops_s": 0.1, "latency_p50_ms": 0.1,
        "latency_p99_ms": 0.1, "success_share": 0, "cost_ratio": 0, "peak_rss_mb": 0.1,
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_prints_every_end_to_end_metric(name, capsys):
    report = run_end_to_end(WORKLOADS[name], seed=5, seconds=0, scale=TOY)
    assert report["failed"] == 0, report["problems"]
    assert_printed(report, CONTRACT["end_to_end"], capsys)
    assert 0 < report["metrics"]["cost_ratio"]["value"] <= 1.0
    assert report["metrics"]["success_share"]["value"] == 1.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(name, capsys):
    report = run_traced(WORKLOADS[name], seed=5, seconds=0, scale=TOY)
    assert report["failed"] == 0, report["problems"]
    assert_printed(report, CONTRACT["per_layer"], capsys)
    spans = Path(report["trace_path"]).read_text().splitlines()
    assert report["trace_path"].endswith(f"trace-{name}.jsonl")
    assert len(spans) == report["spans"] > 0
    assert {"op_id", "name", "parent", "start_ns", "end_ns"} <= set(json.loads(spans[0]))
    parts = report["accounting"]
    assert parts["sum"] == pytest.approx(parts["tcp.roundtrip"]) and parts["sum"] > 0


def test_seed_changes_the_op_sequence_and_repeats_it_exactly():
    workload = WORKLOADS["gateway_write_mix"]

    def generated(seed):
        inputs = workload.inputs(seed, TOY)
        ops = round_prefix(workload, inputs, 2 * TOY.gateway_ops)
        return (
            [text for text, _ in inputs.queries],
            json.dumps([(caller, op.kind, op.text, op.values) for caller, op in ops]),
        )

    queries, sequence = generated(5)
    assert generated(5) == (queries, sequence)
    other_queries, other_sequence = generated(6)
    assert other_queries == queries  # cost_ratio is exact: the queries are fixed
    assert other_sequence != sequence
