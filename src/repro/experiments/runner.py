"""Run every experiment and print a consolidated report.

``python -m repro.experiments.runner`` regenerates all of the paper's tables
and figures (plus the ablations) and prints their text renderings; the same
entry points are exercised, with smaller parameters, by the pytest-benchmark
suite under ``benchmarks/``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional

from .ablation_baseline import BaselineComparison, run_baseline_ablation
from .ablation_grouping import GroupingAblationResult, run_grouping_ablation
from .ablation_priority import PriorityAblationResult, run_priority_ablation
from .complexity import ComplexityResult, run_complexity
from .figure_4_1 import Figure41Result, run_figure_4_1
from .table_4_1 import Table41Result, run_table_4_1
from .table_4_2 import Table42Result, run_table_4_2


@dataclass
class ExperimentReport:
    """Results of a full experiment run."""

    table_4_1: Optional[Table41Result] = None
    figure_4_1: Optional[Figure41Result] = None
    table_4_2: Optional[Table42Result] = None
    complexity: Optional[ComplexityResult] = None
    grouping: Optional[GroupingAblationResult] = None
    priority: Optional[PriorityAblationResult] = None
    baseline: Optional[BaselineComparison] = None

    def render(self) -> str:
        """The consolidated text report."""
        sections = []
        if self.table_4_1 is not None:
            sections.append("== Table 4.1: database instances ==")
            sections.append(self.table_4_1.as_table())
        if self.figure_4_1 is not None:
            sections.append("")
            sections.append("== Figure 4.1: query transformation time ==")
            sections.append(self.figure_4_1.as_table())
            if self.figure_4_1.cache is not None:
                sections.append(
                    f"service caches: {self.figure_4_1.cache.describe()}"
                )
        if self.table_4_2 is not None:
            sections.append("")
            sections.append("== Table 4.2: optimized/original cost ratio buckets ==")
            sections.append(self.table_4_2.as_table())
            for name in sorted(self.table_4_2.rows):
                row = self.table_4_2.rows[name]
                if row.cache is not None:
                    sections.append(
                        f"service caches ({name}): {row.cache.describe()}"
                    )
        if self.complexity is not None:
            sections.append("")
            sections.append("== Complexity: O(m*n) transformation scaling ==")
            sections.append(self.complexity.as_table())
        if self.grouping is not None:
            sections.append("")
            sections.append("== Ablation: constraint grouping policies ==")
            sections.append(self.grouping.as_table())
        if self.priority is not None:
            sections.append("")
            sections.append("== Ablation: priority queue under a budget ==")
            sections.append(self.priority.as_table())
        if self.baseline is not None:
            sections.append("")
            sections.append("== Ablation: tentative vs straight-forward baseline ==")
            sections.append(self.baseline.as_table())
        return "\n".join(sections)


def run_all(
    query_count: int = 40,
    seed: int = 7,
    quick: bool = False,
    engine: Optional[str] = None,
) -> ExperimentReport:
    """Run every experiment.

    ``quick`` shrinks workloads so the full report finishes in a few seconds
    (used by tests); the default parameters match the paper's setup.
    ``engine`` selects the execution engine for the cost-measuring
    experiments (``"rowwise"`` / ``"vectorized"``; ``None`` = vectorized)
    — counters, and therefore the reported numbers, are
    engine-independent.
    """
    count = 12 if quick else query_count
    report = ExperimentReport()
    report.table_4_1 = run_table_4_1(seed=seed)
    report.figure_4_1 = run_figure_4_1(
        query_count=count, seed=seed, repeats=1 if quick else 3
    )
    report.table_4_2 = run_table_4_2(
        query_count=count,
        seed=seed,
        check_answers=not quick,
        execution_mode=engine,
    )
    report.complexity = run_complexity(
        constraint_counts=(8, 16, 32) if quick else (8, 16, 32, 64, 128),
        repeats=1 if quick else 3,
    )
    report.grouping = run_grouping_ablation(query_count=count, seed=seed)
    report.priority = run_priority_ablation(query_count=count, seed=seed)
    report.baseline = run_baseline_ablation(
        query_count=min(count, 25), seed=seed, orderings=2 if quick else 4
    )
    return report


def main(argv=None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=40, help="workload size")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--quick", action="store_true", help="shrink workloads for a fast run"
    )
    parser.add_argument(
        "--engine",
        choices=["rowwise", "vectorized"],
        default=None,
        help="execution engine for the cost-measuring experiments "
        "(default: vectorized)",
    )
    args = parser.parse_args(argv)
    report = run_all(
        query_count=args.queries,
        seed=args.seed,
        quick=args.quick,
        engine=args.engine,
    )
    print(report.render())
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(main())
