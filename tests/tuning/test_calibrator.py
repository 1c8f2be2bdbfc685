"""Unit tests for the measured-cost calibrator."""

import random

import pytest

from repro.engine.executor import ExecutionMetrics
from repro.tuning import CostCalibrator
from repro.tuning.calibrator import R_SQUARED_FLOOR

#: Ground-truth per-operation seconds a synthetic workload is priced with.
TRUTH = {
    "instances_retrieved": 5e-6,
    "predicate_evaluations": 1e-7,
    "pointer_traversals": 1.5e-6,
    "index_lookups": 2.5e-7,
    "rows_output": 2.5e-7,
}


def _synthetic_samples(count, seed):
    """(metrics, wall_time) pairs whose wall time IS the weighted counters."""
    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        metrics = ExecutionMetrics(
            instances_retrieved=rng.randrange(50, 5000),
            predicate_evaluations=rng.randrange(100, 20000),
            pointer_traversals=rng.randrange(0, 2000),
            index_lookups=rng.randrange(0, 500),
            rows_output=rng.randrange(1, 1000),
        )
        wall = sum(
            TRUTH[name] * getattr(metrics, name) for name in TRUTH
        )
        samples.append((metrics, wall))
    return samples


def test_recovers_ground_truth_ratios():
    calibrator = CostCalibrator(seed=7)
    for metrics, wall in _synthetic_samples(200, seed=5):
        calibrator.observe(metrics, wall)
    report = calibrator.calibrate()
    assert report is not None
    assert report.r_squared > 0.999
    weights = report.weights
    # Normalized contract: instance retrieval anchors at 1.0 and every
    # other weight lands on its true ratio.
    assert weights.instance_retrieval == 1.0
    truth_ratio = TRUTH["pointer_traversals"] / TRUTH["instances_retrieved"]
    assert weights.pointer_traversal == pytest.approx(truth_ratio, rel=0.05)
    truth_ratio = TRUTH["predicate_evaluations"] / TRUTH["instances_retrieved"]
    assert weights.predicate_evaluation == pytest.approx(truth_ratio, rel=0.1)


def test_identical_streams_calibrate_identically():
    runs = []
    for _ in range(2):
        calibrator = CostCalibrator(seed=3, reservoir_size=64)
        for metrics, wall in _synthetic_samples(300, seed=9):
            calibrator.observe(metrics, wall)
        runs.append(calibrator.calibrate().weights)
    assert runs[0] == runs[1]


def test_refuses_underdetermined_fits():
    calibrator = CostCalibrator(min_samples=24)
    for metrics, wall in _synthetic_samples(23, seed=1):
        calibrator.observe(metrics, wall)
    assert not calibrator.ready()
    assert calibrator.calibrate() is None
    calibrator.observe(ExecutionMetrics(instances_retrieved=10), 1e-4)
    assert calibrator.ready()
    assert calibrator.calibrate() is not None


def test_refuses_fits_below_the_r_squared_floor():
    """Wall times that the counters do not explain fit with a low r², and
    such a fit is refused rather than swapped into the cost model."""
    samples = _synthetic_samples(200, seed=5)
    rng = random.Random(11)
    noisy = CostCalibrator(seed=7)
    for metrics, _wall in samples:
        noisy.observe(metrics, rng.uniform(1e-4, 1e-2))
    assert noisy.ready()
    assert noisy.calibrate() is None
    assert noisy.snapshot()["fits"] == 0
    # The same counters with the wall times they explain fit well above it.
    clean = CostCalibrator(seed=7)
    for metrics, wall in samples:
        clean.observe(metrics, wall)
    report = clean.calibrate()
    assert report is not None and report.r_squared >= R_SQUARED_FLOOR
    assert 0.65 < R_SQUARED_FLOOR < 0.99


def test_reservoir_stays_bounded_and_counts_everything():
    calibrator = CostCalibrator(reservoir_size=32, seed=0)
    for metrics, wall in _synthetic_samples(500, seed=2):
        calibrator.observe(metrics, wall)
    assert calibrator.sample_count() == 32
    assert calibrator.observed_count() == 500
    snapshot = calibrator.snapshot()
    assert (snapshot["retained"], snapshot["observed"]) == (32, 500)


def test_negative_samples_are_discarded():
    calibrator = CostCalibrator()
    calibrator.observe(ExecutionMetrics(instances_retrieved=5), -1.0)
    assert calibrator.sample_count() == 0  # clock skew discarded
    assert calibrator.observed_count() == 0
