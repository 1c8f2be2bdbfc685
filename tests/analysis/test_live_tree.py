"""The live tree must stay clean modulo the committed baseline.

This is the in-suite mirror of CI's ``static-analysis`` job: it runs
every pass over ``src/repro`` with the repo's baseline, so a
contract regression fails the unit suite even before the dedicated job
runs — and a fixed finding whose baseline entry was forgotten fails too
(stale entries must be pruned, not accumulated).
"""

from pathlib import Path

from repro.analysis import AnalysisContext, Baseline, all_passes, run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]


def live_report():
    context = AnalysisContext(REPO_ROOT / "src" / "repro")
    baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
    return run_analysis(context, all_passes(), baseline)


def test_live_tree_is_clean_modulo_baseline():
    report = live_report()
    assert report.new == [], "unbaselined findings:\n" + "\n".join(
        f"  {f.location()}: [{f.rule}/{f.check}] {f.symbol}: {f.message}"
        for f in report.new
    )


def test_baseline_has_no_stale_entries():
    report = live_report()
    assert report.stale_entries == [], (
        "baseline entries that no longer match any finding: "
        + ", ".join(e.symbol for e in report.stale_entries)
    )


def test_every_baselined_finding_is_justified():
    report = live_report()
    for _, entry in report.baselined:
        assert len(entry.justification.split()) >= 5, entry
