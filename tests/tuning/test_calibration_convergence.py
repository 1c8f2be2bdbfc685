"""Calibration convergence on the differential-oracle workload.

The calibrator's promise: fed real execution counters with wall times,
the fitted weights price queries *at least as faithfully* as the
hand-picked defaults.  This harness replays the 500-query seeded
workload the differential oracle uses, on each engine leg, with wall
times synthesized from a known ground-truth cost vector (real metrics,
noiseless clock — so the test is deterministic and the recovered
weights can be checked against the truth).  The gate compares pairwise
ranking accuracy: over sampled query pairs, the calibrated cost model
must order executions by their true cost at least as often as the
hand-weight model does.
"""

import itertools
import os

import pytest

from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
from repro.engine import ParallelExecutor, QueryExecutor, VectorizedExecutor
from repro.engine.cost_model import CostModel, CostWeights
from repro.tuning import CostCalibrator

WORKLOAD_QUERIES = int(os.environ.get("REPRO_ORACLE_QUERIES", "500"))
WORKLOAD_SEED = 20260808

#: Ground-truth per-operation seconds (I/O-heavy, era-appropriate shape).
TRUTH = {
    "instances_retrieved": 4e-6,
    "predicate_evaluations": 6e-8,
    "pointer_traversals": 9e-7,
    "index_lookups": 3e-7,
    "rows_output": 2e-7,
}


def _true_seconds(metrics):
    return sum(TRUTH[name] * getattr(metrics, name) for name in TRUTH)


def _ranking_accuracy(cost_model, executions):
    """Fraction of sampled pairs ordered like their true cost.

    Pairs whose true costs sit within 2% of each other are skipped: such
    alternatives are a wash, and collinearity between the primitive
    counters makes their order noise for *any* linear weighting — hand
    weights included.
    """
    pairs = list(itertools.combinations(range(0, len(executions), 7), 2))
    agreed, counted = 0, 0
    for i, j in pairs:
        truth_i, truth_j = executions[i][1], executions[j][1]
        if abs(truth_i - truth_j) <= 0.02 * max(truth_i, truth_j):
            continue
        cost_i = cost_model.measured_cost(executions[i][0])
        cost_j = cost_model.measured_cost(executions[j][0])
        counted += 1
        if (cost_i < cost_j) == (truth_i < truth_j):
            agreed += 1
    assert counted >= 100  # the gate only means something at scale
    return agreed / counted


@pytest.fixture(scope="module")
def workload():
    return build_evaluation_setup(
        TABLE_4_1_SPECS["DB1"],
        query_count=WORKLOAD_QUERIES,
        seed=WORKLOAD_SEED,
    )


@pytest.mark.parametrize("mode", ["rowwise", "vectorized", "parallel"])
def test_calibrated_weights_rank_at_least_as_well_as_hand_weights(
    workload, mode
):
    if mode == "rowwise":
        executor = QueryExecutor(workload.schema, workload.store)
    elif mode == "vectorized":
        executor = VectorizedExecutor(workload.schema, workload.store)
    else:
        executor = ParallelExecutor(
            workload.schema, workload.store, workers=2, min_partition_rows=1
        )
    calibrator = CostCalibrator(reservoir_size=256, seed=1)
    executions = []
    try:
        for query in workload.queries:
            result = executor.execute(query)
            wall = _true_seconds(result.metrics)
            calibrator.observe(result.metrics, wall)
            executions.append((result.metrics, wall))
    finally:
        if mode == "parallel":
            executor.close()

    report = calibrator.calibrate()
    assert report is not None
    assert report.sample_count == min(256, len(executions))
    assert report.r_squared > 0.99

    statistics = workload.cost_model.statistics
    hand_model = CostModel(workload.schema, statistics)
    calibrated_model = CostModel(workload.schema, statistics)
    calibrated_model.set_weights(report.weights)

    hand_accuracy = _ranking_accuracy(hand_model, executions)
    calibrated_accuracy = _ranking_accuracy(calibrated_model, executions)
    assert calibrated_accuracy >= hand_accuracy, (
        f"{mode}: calibrated weights rank {calibrated_accuracy:.3f} "
        f"vs hand {hand_accuracy:.3f}"
    )
    # With a noiseless clock the fit should essentially recover the true
    # ordering outright, not merely tie the defaults.
    assert calibrated_accuracy > 0.95


def test_calibration_is_deterministic_per_leg(workload):
    weights = []
    for _ in range(2):
        executor = QueryExecutor(workload.schema, workload.store)
        calibrator = CostCalibrator(reservoir_size=128, seed=5)
        for query in workload.queries[:200]:
            result = executor.execute(query)
            calibrator.observe(result.metrics, _true_seconds(result.metrics))
        weights.append(calibrator.calibrate().weights)
    assert weights[0] == weights[1]
    assert isinstance(weights[0], CostWeights)
