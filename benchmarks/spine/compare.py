"""Compare two run-sets metric by metric against the benchmark's bounds.

``python3 benchmarks/spine/compare.py A.json B.json``

One row per (end-to-end metric, workload): both medians, both quartile
ranges, the bound from ``BENCHMARK.json``, the ratio B/A (its base is A's
median) and a verdict:

``within``      B's median is no worse than A's by more than the bound
``worse``       it is
``better``      B's median beats A's by more than the bound
``unresolved``  a side's own spread (IQR / median) is wider than the bound,
                so the medians cannot settle the question

Exits non-zero when any row is ``worse`` or ``unresolved``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def verdict(a, b, bound, better):
    """Classify B against A for one metric; ``a``/``b`` are run-set entries."""
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    change = (b["median"] - a["median"]) / abs(a["median"])
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "within"


def compare(run_set_a, run_set_b, contract):
    """Rows of the comparison table, one per (metric, workload)."""
    rows = []
    for entry in contract["end_to_end"]:
        name = entry["name"]
        for workload in contract["workloads"]:
            a = run_set_a["workloads"][workload["name"]]["metrics"][name]
            b = run_set_b["workloads"][workload["name"]]["metrics"][name]
            rows.append(
                {
                    "metric": name,
                    "workload": workload["name"],
                    "unit": entry["unit"],
                    "a": a,
                    "b": b,
                    "bound": entry["bound"],
                    "ratio": b["median"] / a["median"],
                    "verdict": verdict(a, b, entry["bound"], entry["better"]),
                }
            )
    return rows


def format_row(row):
    a, b = row["a"], row["b"]
    return (
        f"{row['metric']:<18} {row['workload']:<18} "
        f"A {a['median']:>10.5g} [{a['q1']:.5g} .. {a['q3']:.5g}]  "
        f"B {b['median']:>10.5g} [{b['q1']:.5g} .. {b['q3']:.5g}]  "
        f"{row['unit']:<6} bound {row['bound']:.2f}  "
        f"B/A {row['ratio']:.4f} (base {a['median']:.5g})  {row['verdict']}"
    )


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    run_set_a, run_set_b = (json.loads(Path(path).read_text()) for path in argv)
    contract = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    rows = compare(run_set_a, run_set_b, contract)
    for row in rows:
        print(format_row(row))
    failures = sum(a["failed"] for a in run_set_a["workloads"].values()) + sum(
        b["failed"] for b in run_set_b["workloads"].values()
    )
    print(f"failed ops across both run-sets: {failures}")
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    return 1 if bad or failures else 0


if __name__ == "__main__":
    sys.exit(main())
