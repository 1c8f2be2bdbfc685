"""Make one run-set: every workload on ten seeds, each in a fresh process.

``python3 benchmarks/spine/runset.py OUT.json``

A run-set is what ``compare.py`` compares and what ``results/`` keeps in
git: every workload of ``BENCHMARK.json`` on seeds 1..10 for the
contract's ``run_seconds``, and for each (workload, end-to-end metric)
the values of every run plus their median and quartiles — the same
numbers the driver takes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

from measure import spread, summarize

HERE = Path(__file__).resolve().parent
SEEDS = list(range(1, 11))
RAW_WALL = re.compile(r"^(\S+) .*\(raw wall ([0-9.eE+-]+)\)", re.M)


def run_once(workload, seed):
    """One fresh-process run: the parsed result line plus the raw wall values."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    for name, raw in RAW_WALL.findall(completed.stdout):
        result["metrics"][name]["raw"] = float(raw)
    return result


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    contract = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    run_set = {"seeds": SEEDS, "workloads": {}}
    for workload in (entry["name"] for entry in contract["workloads"]):
        values, raw_values = {}, {}
        attempted = failed = 0
        for seed in SEEDS:
            result = run_once(workload, seed)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
                if "raw" in entry:
                    raw_values.setdefault(name, []).append(entry["raw"])
        metrics = {}
        for name, series in values.items():
            metrics[name] = dict(summarize(series), spread=spread(series), values=series)
            if name in raw_values:
                # Unscaled wall values: what the host-speed scaling started from.
                metrics[name]["raw_values"] = raw_values[name]
                metrics[name]["raw_spread"] = spread(raw_values[name])
            print(
                f"{workload:<18} {name:<18} median {metrics[name]['median']:.6g} "
                f"spread {metrics[name]['spread']:.4f}",
                flush=True,
            )
        run_set["workloads"][workload] = {
            "attempted": attempted, "failed": failed, "metrics": metrics,
        }
    Path(argv[0]).write_text(json.dumps(run_set, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
