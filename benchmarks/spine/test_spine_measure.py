"""Hand-computed cases for the spine's statistics helpers."""

import json

import pytest
from measure import (
    NOMINAL_KERNEL_S,
    HostSpeed,
    Segments,
    Tracer,
    percentile,
    ratio_verdict,
    self_time,
    spread,
    summarize,
    supported_percentile,
)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 1.0) == 100
    assert percentile([7], 0.99) == 7
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_highest_percentile_needs_ten_samples_beyond():
    # 1000 samples: rank 990 leaves exactly 10 beyond -> p99 is supported.
    assert supported_percentile(1000) == 0.99
    # 999 samples: rank ceil(989.01) = 990 leaves 9 -> fall back to p90.
    assert supported_percentile(999) == 0.9
    # 20 samples: p90's rank 18 leaves 2, the median's rank 10 leaves 10.
    assert supported_percentile(20) == 0.5
    # p99 is the top of the ladder however many samples there are.
    assert supported_percentile(100_000) == 0.99


def test_median_and_quartiles_over_rounds():
    summary = summarize([5, 1, 4, 2, 3])
    assert summary == {"median": 3, "q1": 1.5, "q3": 4.5, "n": 5}
    assert spread([5, 1, 4, 2, 3]) == pytest.approx(1.0)
    assert summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    assert spread([0, 0, 0]) == 0.0


def test_self_time_subtracts_the_union_of_child_intervals():
    # (1,3) and (2,5) overlap: together they cover 1..5 = 4; (8,12) is
    # clipped to the parent's end: 2 more.  10 - 6 = 4.
    assert self_time((0, 10), [(2, 5), (1, 3), (8, 12)]) == pytest.approx(4)
    assert self_time((0, 10), []) == 10
    assert self_time((0, 10), [(-5, 20)]) == 0
    assert self_time((0, 10), [(20, 30)]) == 10


def test_ratio_spanning_one_is_unresolved():
    # Quartiles of these four are 0.9125 and 1.0875: they span 1.0.
    assert ratio_verdict([0.9, 0.95, 1.05, 1.1]) == "unresolved"
    assert ratio_verdict([1.2, 1.3, 1.4]) == "above"
    assert ratio_verdict([0.5, 0.6, 0.7]) == "below"


def test_host_speed_scales_by_neighbouring_kernel_samples():
    speed = HostSpeed()
    speed.times = [0.0, 10.0]
    speed.durations = [NOMINAL_KERNEL_S, 2 * NOMINAL_KERNEL_S]
    assert speed.factor(-1.0) == pytest.approx(1.0)
    assert speed.factor(5.0) == pytest.approx(2 / 3)
    assert speed.factor(11.0) == pytest.approx(0.5)
    # A 3 s stretch centred on t=5 is 2 s on the nominal host.
    assert speed.scale(3.5, 3.0) == pytest.approx(2.0)
    with pytest.raises(RuntimeError):
        HostSpeed().factor(0.0)


def test_segments_sum_busy_stretches_only():
    speed = HostSpeed()
    speed.times = [0.0]
    speed.durations = [NOMINAL_KERNEL_S / 2]  # host twice as fast as nominal
    segments = Segments(speed)
    segments.spans = [(1.0, 2.0), (5.0, 5.5)]
    assert segments.raw_wall() == pytest.approx(1.5)
    assert segments.nominal_wall() == pytest.approx(3.0)


def test_tracer_writes_one_json_line_per_span(tmp_path):
    tracer = Tracer()
    tracer.add("op1", "engine.execute", "pipeline", 10, 30, {"rows": 4})
    tracer.add("op1", "server.encode", "pipeline", 30, 35)
    path = tmp_path / "out" / "trace.jsonl"
    tracer.write(str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0] == {
        "op_id": "op1", "name": "engine.execute", "parent": "pipeline",
        "start_ns": 10, "end_ns": 30, "counts": {"rows": 4},
    }
    assert "counts" not in records[1]
