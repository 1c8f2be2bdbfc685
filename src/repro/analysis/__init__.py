"""Static invariant checker for the repro codebase.

An AST-based analysis framework plus four concrete passes that enforce
the contracts the runtime oracles can only check dynamically: engine
exhaustiveness (``engine-contract``), readers-writer lock discipline
(``lock-discipline``), cross-process determinism (``determinism``) and
the metrics surface (``metrics-parity-surface``).  See ``docs/analysis.md`` for the rule
catalogue and ``python -m repro.analysis --help`` for the driver.
"""

from .baseline import Baseline, BaselineEntry
from .framework import (
    AnalysisContext,
    AnalysisError,
    AnalysisPass,
    AnalysisReport,
    Finding,
    run_analysis,
)
from .passes import all_passes
from .report import render_json, render_text, report_to_dict

__all__ = [
    "AnalysisContext",
    "AnalysisError",
    "AnalysisPass",
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "all_passes",
    "render_json",
    "render_text",
    "report_to_dict",
    "run_analysis",
]
