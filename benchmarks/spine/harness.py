"""Runs one workload end to end and turns round logs into named metrics.

Method: set-up (repeated, the median reported; the warm-up is inside it)
-> a fixed number of timed rounds of a fixed op count (``--seconds`` buys
rounds of ``Scale.round_seconds`` each, so counts repeat exactly) ->
correctness checks outside the timed rounds.  Every timing of the rounds is
reported on the nominal host (see :mod:`measure`) with the raw wall value
beside it; set-up times are scaled by the run's median kernel time.
"""

import statistics
import time

from measure import (
    HostSpeed,
    isolate_bench_heap,
    percentile,
    summarize,
    supported_percentile,
)


def metric(value, unit, **extra):
    """One reported metric: the contract's ``value``/``unit`` plus context."""
    entry = {"value": value, "unit": unit}
    entry.update(extra)
    return entry


def summary_metric(values, unit, scale=1.0, **extra):
    """A metric that is the median over rounds, with quartiles and count."""
    summary = summarize([value * scale for value in values])
    return metric(
        summary["median"], unit,
        q1=summary["q1"], q3=summary["q3"], n=summary["n"], **extra
    )


def timed_setups(workload, inputs, scale):
    """Run the program's set-up ``setup_reps`` times; keep the last state."""
    state = None
    seconds = []
    for _ in range(scale.setup_reps):
        if state is not None:
            workload.teardown(state)
            state = None
        start = time.perf_counter()
        state = workload.setup(inputs, scale)
        seconds.append(time.perf_counter() - start)
    return state, seconds


def round_throughputs(rounds):
    """Per-round ops/s, nominal and raw."""
    nominal = [len(log.ops) / log.segments.nominal_wall() for log in rounds]
    raw = [len(log.ops) / log.segments.raw_wall() for log in rounds]
    return nominal, raw


def latency_metrics(rounds, speed, family=None):
    """Median-over-rounds p50 and tail percentile of per-op latency, in ms.

    The tail is each round's highest percentile with ten samples beyond
    it — p99 from 1000 ops a round; a smaller round (or one op family of
    it) reports p90 or the median instead, named in ``percentile``.
    """
    nominal, raw = [], []
    for log in rounds:
        ops = [op for op in log.ops if family is None or op[2] == family]
        if ops:
            nominal.append([speed.scale(start, seconds) for start, seconds, _ in ops])
            raw.append([seconds for _, seconds, _ in ops])
    fraction = supported_percentile(min(len(latencies) for latencies in nominal))
    p50 = summary_metric(
        [statistics.median(latencies) for latencies in nominal], "ms", 1e3,
        raw=statistics.median(statistics.median(latencies) for latencies in raw) * 1e3,
    )
    tail = summary_metric(
        [percentile(latencies, fraction) for latencies in nominal], "ms", 1e3,
        percentile=fraction, ops=len(nominal[0]),
        raw=statistics.median(percentile(latencies, fraction) for latencies in raw) * 1e3,
    )
    return p50, tail


def run_end_to_end(workload, seed, seconds, scale):
    """One untraced run: the seven end-to-end numbers and the checks."""
    speed = HostSpeed()
    try:
        inputs = workload.inputs(seed, scale)
        isolate_bench_heap()
        state, setup_seconds = timed_setups(workload, inputs, scale)
        try:
            rounds = [
                workload.round(state, speed, scale) for _ in range(scale.rounds(seconds))
            ]
            peak_rss = workload.peak_rss_mb(state)
            report = workload.check(state, inputs)
        finally:
            workload.teardown(state)
    finally:
        speed.close()

    timed_ops = sum(len(log.ops) for log in rounds)
    timed_failed = sum(log.failed for log in rounds)
    attempted = timed_ops + report.checked
    failed = timed_failed + report.failed
    throughput, throughput_raw = round_throughputs(rounds)
    p50, p99 = latency_metrics(rounds, speed)
    metrics = {
        "setup_s": summary_metric(
            [speed.scale_by_run(seconds) for seconds in setup_seconds], "s",
            raw=statistics.median(setup_seconds),
        ),
        "throughput_ops_s": summary_metric(
            throughput, "ops/s", raw=statistics.median(throughput_raw)
        ),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        # failed_share's complement: a bounded metric may never read 0.
        "success_share": metric(
            1.0 - failed / attempted, "ratio", failed=failed, attempted=attempted
        ),
        "cost_ratio": metric(
            report.cost_ratio, "ratio",
            optimized=report.cost_optimized, original=report.cost_original,
            queries=len(inputs.queries),
        ),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    problems = list(report.problems)
    problems.extend(log.first_error for log in rounds if log.first_error)
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "rounds": len(rounds),
        "ops_per_round": len(rounds[0].ops),
        "host_kernel_ms": speed.median_kernel() * 1e3,
        "metrics": metrics,
        "problems": problems[:5],
    }
