"""Fixture plumbing for the static-analysis tests.

Each pass is tested against tiny materialized package trees: a dict of
``relpath -> source`` is written under ``tmp_path`` and analyzed exactly
as the live tree is — same context, same passes — so a fixture that
trips one rule proves the rule, and a fixture that trips *only* that
rule proves the passes do not bleed into each other.
"""

from typing import Dict

import pytest

from repro.analysis import AnalysisContext, all_passes, run_analysis


@pytest.fixture
def build_tree(tmp_path):
    """Materialize ``{relpath: source}`` into a package dir named repro."""

    def build(files: Dict[str, str]) -> AnalysisContext:
        package_root = tmp_path / "repro"
        for relpath, source in files.items():
            path = package_root / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        package_root.mkdir(exist_ok=True)
        return AnalysisContext(package_root)

    return build


@pytest.fixture
def run_all_passes():
    """Run every registered pass over a context; returns the findings."""

    def run(context: AnalysisContext):
        return run_analysis(context, all_passes()).findings

    return run


def rules_of(findings) -> set:
    return {finding.rule for finding in findings}


def checks_of(findings) -> set:
    return {(finding.rule, finding.check) for finding in findings}
