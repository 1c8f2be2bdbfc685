"""Command-line driver: ``python -m repro.analysis`` / ``repro-cli lint``.

Exit codes: ``0`` clean (modulo baseline), ``1`` unbaselined findings,
``2`` configuration problems (bad baseline, unknown rule, parse error).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .baseline import Baseline
from .framework import AnalysisContext, AnalysisError, run_analysis
from .passes import all_passes
from .report import render_json, render_text

#: ``src/repro`` — the package this checker ships inside, which is also
#: its default analysis target.
DEFAULT_PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def _default_repo_root(package_root: Path) -> Path:
    """``src/repro`` -> the repository root two levels up."""
    return package_root.parent.parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Statically check the repo's engine, locking, determinism "
            "and metrics-parity invariants."
        ),
    )
    parser.add_argument(
        "--package-root",
        type=Path,
        default=None,
        help="package directory to analyze (default: the installed repro package)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline JSON of grandfathered findings "
        "(default: <repo>/analysis-baseline.json for the default package root)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the JSON report to this path (CI artifact)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE",
        help="run only this rule id (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rule ids and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    passes = all_passes()
    if args.list_rules:
        for analysis_pass in passes:
            print(f"{analysis_pass.rule}: {analysis_pass.description}")
        return 0

    if args.rule:
        known = {p.rule for p in passes}
        unknown = sorted(set(args.rule) - known)
        if unknown:
            print(
                f"unknown rule(s): {', '.join(unknown)}"
                f" (known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2
        passes = [p for p in passes if p.rule in set(args.rule)]

    defaulted = args.package_root is None
    package_root = (args.package_root or DEFAULT_PACKAGE_ROOT).resolve()
    if not package_root.is_dir():
        print(f"package root {package_root} is not a directory", file=sys.stderr)
        return 2

    baseline_path = args.baseline
    if defaulted and baseline_path is None:
        # Only the in-repo default target inherits the repo's baseline;
        # explicit fixture trees start from nothing.
        baseline_path = _default_repo_root(package_root) / "analysis-baseline.json"

    try:
        baseline = Baseline.load(baseline_path)
        context = AnalysisContext(package_root)
        report = run_analysis(context, passes, baseline)
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2

    if args.output is not None:
        args.output.write_text(render_json(report), encoding="utf-8")
    if args.format == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_text(report))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
