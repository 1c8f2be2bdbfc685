"""The spine's one command.

``python3 benchmarks/spine/run.py --workload NAME --seed N --seconds S --trace 0|1``

Generates every input from the seed, drives the workload through the
program's public API, checks every answer, prints every metric by name
with its unit, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  Exits non-zero when any
correctness check failed.  Without ``--workload`` all four run in turn.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE_DIR = HERE.parents[1] / "src"
if not (SOURCE_DIR / "repro").is_dir():
    # The benchmark measures the program in this checkout, never an
    # installed copy: without the source tree there is nothing to measure.
    sys.exit(f"spine: no program to measure: {SOURCE_DIR / 'repro'} is missing")
sys.path.insert(0, str(SOURCE_DIR))

from harness import run_end_to_end  # noqa: E402
from inputs import FULL  # noqa: E402
from layers import format_accounting, run_traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def contract() -> dict:
    """``BENCHMARK.json``: the names, units and bounds this command honours."""
    return json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def format_metric(name, entry):
    """``name  value unit  [q1 .. q3, n=..]  (raw ..)`` — one printed line."""
    parts = [f"{name:<40} {entry['value']:>14.6g} {entry['unit']:<6}"]
    if "q1" in entry:
        parts.append(f"[{entry['q1']:.6g} .. {entry['q3']:.6g}, n={entry['n']}]")
    elif "n" in entry:
        parts.append(f"[n={entry['n']}]")
    if "percentile" in entry:
        parts.append(f"p{entry['percentile'] * 100:g}")
    if "raw" in entry:
        parts.append(f"(raw wall {entry['raw']:.6g})")
    if "note" in entry:
        parts.append(entry["note"])
    return " ".join(parts)


def print_report(report):
    print(
        f"== {report['workload']} seed={report['seed']}: "
        f"{report['rounds']} round(s) x {report['ops_per_round']} ops, "
        f"host kernel {report['host_kernel_ms']:.3f} ms =="
    )
    for name, entry in report["metrics"].items():
        print(format_metric(name, entry))
    print(
        f"{'failed_share':<40} {report['failed_share']:>14.6g} ratio  "
        f"({report['failed']} of {report['attempted']} ops)"
    )
    if "accounting" in report:
        print(format_accounting(report["accounting"]))
        for note, value in report["notes"].items():
            print(f"{note}: {value:.1f}")
        print(f"{report['spans']} spans written to {report['trace_path']}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


def result_line(report):
    """The contract's last line: exactly four keys, value + unit per metric."""
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in report["metrics"].items()
            },
        }
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else contract()["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    exit_code = 0
    for name in names:
        if args.trace:
            report = run_traced(WORKLOADS[name], args.seed, seconds, FULL)
        else:
            report = run_end_to_end(WORKLOADS[name], args.seed, seconds, FULL)
        print_report(report)
        print(result_line(report), flush=True)
        if not report["correct"]:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
