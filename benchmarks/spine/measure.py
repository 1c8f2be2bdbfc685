"""Measurement primitives of the spine: statistics, host speed, spans.

Three independent pieces, all stdlib-only:

* **Statistics helpers** — nearest-rank percentiles that refuse to report
  a tail the sample cannot support, median/quartile summaries over rounds,
  span self time, and the "ratio spans 1.0 → unresolved" rule.
* :class:`HostSpeed` — a fixed reference kernel sampled between ops, in a
  child process pinned to the CPU the program under test runs on.  The
  sandbox this repo is measured on changes CPU speed by up to 2x for
  seconds at a time (per core, independently), so a wall time means
  little by itself.  Every timing the spine reports is scaled by
  ``NOMINAL_KERNEL_S / kernel time measured next to it``: the time the
  work would have taken on a host where the kernel takes exactly
  ``NOMINAL_KERNEL_S``.  Raw wall times are printed beside the scaled ones.
* :class:`Tracer` — in-memory span list written out as JSONL at exit.
"""

import bisect
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time

#: Percentiles the spine will report, lowest first.
PERCENTILE_LADDER = (0.5, 0.9, 0.99)

#: A tail percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


# ----------------------------------------------------------------------
# Statistics helpers
# ----------------------------------------------------------------------
def percentile(samples, fraction):
    """Nearest-rank percentile: the smallest sample with ``fraction`` at or below."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(count):
    """The highest ladder fraction with enough samples beyond it.

    "Beyond" counts the samples strictly above the nearest-rank position;
    with fewer than :data:`SAMPLES_BEYOND` of them the percentile is one
    outlier's latency, not a property of the workload.  Falls back to the
    median, which any non-empty sample supports.
    """
    best = PERCENTILE_LADDER[0]
    for fraction in PERCENTILE_LADDER:
        beyond = count - max(1, math.ceil(fraction * count))
        if beyond >= SAMPLES_BEYOND:
            best = fraction
    return best


def summarize(values):
    """Median, quartiles and count of one metric's per-round values."""
    values = list(values)
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def spread(values):
    """Interquartile range as a share of the median (the driver's steadiness test)."""
    summary = summarize(values)
    if summary["median"] == 0:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def self_time(span, children):
    """Duration of ``span`` not covered by any of its ``children``.

    Spans are ``(start, end)`` pairs; children may overlap each other and
    stick out of the parent — only the union of their parts inside the
    parent is subtracted.
    """
    start, end = span
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return (end - start) - covered


def ratio_verdict(ratios):
    """``above``/``below`` 1.0, or ``unresolved`` when the quartiles span it."""
    summary = summarize(ratios)
    if summary["q1"] <= 1.0 <= summary["q3"]:
        return "unresolved"
    return "above" if summary["median"] > 1.0 else "below"


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Kernel time that defines the nominal host (seconds).  Chosen as the
#: kernel's typical time on the 2-core sandbox the seed was measured on,
#: so scaled and raw times read alike there.
NOMINAL_KERNEL_S = 0.0023

_LEFT = [
    {"id": i, "k": i % 97, "name": "n%d" % i, "q": i * 7 % 1000}
    for i in range(1500)
]
_RIGHT = [{"k": i % 97, "v": "v%d" % i} for i in range(200)]


def reference_kernel():
    """Fixed work: an integer loop, then a hash join, filter, sort and JSON.

    Half interpreter-bound arithmetic, half allocation-heavy row work like
    the program's own.  Measured against the workloads over five minutes
    of drifting host speed, the arithmetic half alone tracks the optimizer
    best, the row half alone the engine; together they hold both within
    ~3 % (IQR of 12 s windows) where raw wall time moves 8-14 %.
    """
    total = 0
    for i in range(20000):
        total += i * i % 7
    index = {}
    for right in _RIGHT:
        index.setdefault(right["k"], []).append(right)
    out = []
    for left in _LEFT:
        if left["q"] >= 300:
            for right in index.get(left["k"], ()):
                out.append({"id": left["id"], "name": left["name"], "v": right["v"]})
    out.sort(key=lambda row: (row["name"], row["v"]))
    json.loads(json.dumps(out[:300]))
    return total


def _cpus():
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return []


#: CPUs this process may use, read before anything pins itself.
ALL_CPUS = _cpus()
#: Where the program under test runs, and where a TCP load generator runs.
#: Core speeds drift independently, so the reference kernel runs on
#: ``PROGRAM_CPU`` too.  On a one-CPU host (or without an affinity call)
#: everything shares what there is.
PROGRAM_CPU = ALL_CPUS[-1] if ALL_CPUS else None
LOADGEN_CPU = ALL_CPUS[0] if ALL_CPUS else None


def pin(cpu, pid=0):
    """Pin process ``pid`` (default: this one) to ``cpu``; a no-op without affinity."""
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


def isolate_bench_heap():
    """Keep the bench's own inputs out of the program's GC and peak RSS.

    The oracle's store and answers live in the bench process.  Left in
    the collector's reach they would lengthen every full collection the
    program under test triggers in-process; ``gc.freeze()`` parks them in
    the permanent generation.  The oracle also holds large answers for a
    moment while it prepares inputs; restarting the peak-RSS counter
    afterwards (Linux; returns False where it cannot) keeps that out of
    the in-process workloads' ``peak_rss_mb``.
    """
    gc.collect()
    gc.freeze()
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


#: Seconds between two kernel samples while ops are being timed.
SAMPLE_INTERVAL = 0.04


def serve_kernel(cpu):
    """The sampling child: one kernel timing per line read, until EOF."""
    pin(cpu)
    gc.disable()  # the kernel makes no cycles; heap size must not leak in
    for _ in range(3):
        reference_kernel()
    print("ready", flush=True)
    for _ in sys.stdin:
        start = time.perf_counter()
        reference_kernel()
        print(repr(time.perf_counter() - start), flush=True)


class HostSpeed:
    """Samples the reference kernel and scales wall times to the nominal host.

    The kernel runs in a child pinned to :data:`PROGRAM_CPU`, so it sees
    the speed of the core the program under test runs on whether that
    program is this process (which then waits, off the core, for the
    sample) or a served child with the load generator on another core.
    Samples are taken between ops only, when the program is idle.
    """

    def __init__(self):
        self.times = []
        self.durations = []
        self._last = 0.0
        self._child = None

    def _start_child(self):
        self._child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)]
            + ([] if PROGRAM_CPU is None else [str(PROGRAM_CPU)]),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self._child.stdout.readline().strip() != "ready":
            raise RuntimeError("host-speed sampling child did not start")

    def sample(self):
        """Time the kernel once, now."""
        if self._child is None:
            self._start_child()
        start = time.perf_counter()
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        duration = float(self._child.stdout.readline())
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(duration)
        self._last = end

    def close(self):
        """Stop the sampling child and wait for it."""
        if self._child is not None:
            self._child.stdin.close()
            self._child.wait()
            self._child.stdout.close()
            self._child = None

    def due(self):
        return time.perf_counter() - self._last >= SAMPLE_INTERVAL

    def factor(self, at):
        """Multiplier turning a wall time measured at ``at`` into nominal time."""
        if not self.times:
            raise RuntimeError("no host-speed sample taken yet")
        after = bisect.bisect_left(self.times, at)
        before = max(after - 1, 0)
        after = min(after, len(self.times) - 1)
        kernel = (self.durations[before] + self.durations[after]) / 2
        return NOMINAL_KERNEL_S / kernel

    def scale(self, start, duration):
        """``duration`` (measured from ``start``) on the nominal host."""
        return duration * self.factor(start + duration / 2)

    def median_kernel(self):
        return statistics.median(self.durations)

    def scale_by_run(self, duration):
        """``duration`` on the nominal host, by the whole run's median kernel.

        For a set-up: one or two seconds inside a single call (or a
        child's boot) that the kernel cannot be sampled inside, while
        samples at its edges find a core that has just idled and read
        anything.  The run's hundreds of samples, taken on a busy core,
        still tell a slow quarter of an hour from a fast one.
        """
        return duration * NOMINAL_KERNEL_S / self.median_kernel()


class Segments:
    """Busy stretches of one round, with kernel samples taken between them."""

    def __init__(self, speed):
        self.speed = speed
        self.spans = []
        self._open = None

    def start(self):
        self._open = time.perf_counter()

    def stop(self):
        self.spans.append((self._open, time.perf_counter()))
        self._open = None

    def checkpoint(self):
        """Between two ops: take a kernel sample if one is due."""
        if self.speed.due():
            self.stop()
            self.speed.sample()
            self.start()

    def raw_wall(self):
        return sum(end - start for start, end in self.spans)

    def nominal_wall(self):
        return sum(self.speed.scale(start, end - start) for start, end in self.spans)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """Spans kept in memory and written as JSONL when the run ends.

    A span is ``(op_id, name, parent, start_ns, end_ns, counts)``: spans of
    one op share ``op_id``; ``parent`` names the span that caused it.
    """

    def __init__(self):
        self.spans = []

    def add(self, op_id, name, parent, start_ns, end_ns, counts=None):
        self.spans.append((op_id, name, parent, start_ns, end_ns, counts))

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for op_id, name, parent, start, end, counts in self.spans:
                record = {
                    "op_id": op_id,
                    "name": name,
                    "parent": parent,
                    "start_ns": start,
                    "end_ns": end,
                }
                if counts:
                    record["counts"] = counts
                handle.write(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    serve_kernel(int(sys.argv[1]) if sys.argv[1:] else None)
