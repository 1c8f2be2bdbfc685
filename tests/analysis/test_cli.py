"""The analysis CLI driver and the repro-level lint subcommand."""

import json
import textwrap

from repro.analysis.cli import main as analysis_main
from repro.cli import main as repro_main

VIOLATING = textwrap.dedent(
    """
    def leak(names):
        chosen = set(names)
        return [name for name in chosen]
    """
)


def materialize(tmp_path, source=VIOLATING):
    package = tmp_path / "repro"
    (package / "constraints").mkdir(parents=True)
    (package / "constraints" / "rules.py").write_text(source)
    return package


def test_violations_exit_1_and_print_findings(tmp_path, capsys):
    package = materialize(tmp_path)
    assert analysis_main(["--package-root", str(package)]) == 1
    out = capsys.readouterr().out
    assert "determinism/set-iteration" in out
    assert "analysis FAILED" in out


def test_clean_tree_exits_0(tmp_path, capsys):
    package = materialize(tmp_path, "VALUE = 1\n")
    assert analysis_main(["--package-root", str(package)]) == 0
    assert "analysis clean" in capsys.readouterr().out


def test_json_output_and_artifact(tmp_path, capsys):
    package = materialize(tmp_path)
    artifact = tmp_path / "report.json"
    code = analysis_main(
        [
            "--package-root",
            str(package),
            "--format",
            "json",
            "--output",
            str(artifact),
        ]
    )
    assert code == 1
    stdout_payload = json.loads(capsys.readouterr().out)
    artifact_payload = json.loads(artifact.read_text())
    assert stdout_payload == artifact_payload
    assert artifact_payload["counts"]["new"] == 1


def test_baseline_silences_and_gates_on_stale(tmp_path, capsys):
    package = materialize(tmp_path)
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "version": 1,
                "findings": [
                    {
                        "rule": "determinism",
                        "check": "set-iteration",
                        "file": "constraints/rules.py",
                        "symbol": "leak:chosen",
                        "justification": "kept for the test",
                    }
                ],
            }
        )
    )
    code = analysis_main(
        ["--package-root", str(package), "--baseline", str(baseline)]
    )
    assert code == 0
    assert "baselined (1)" in capsys.readouterr().out


def test_rule_filter_and_unknown_rule(tmp_path, capsys):
    package = materialize(tmp_path)
    assert (
        analysis_main(
            ["--package-root", str(package), "--rule", "engine-contract"]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        analysis_main(["--package-root", str(package), "--rule", "nope"]) == 2
    )
    assert "unknown rule" in capsys.readouterr().err


def test_list_rules(capsys):
    assert analysis_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    rules = [line.split(":", 1)[0] for line in out.splitlines()]
    assert rules == [
        "engine-contract",
        "lock-discipline",
        "determinism",
        "metrics-parity-surface",
    ]


def test_broken_baseline_exits_2(tmp_path, capsys):
    package = materialize(tmp_path, "VALUE = 1\n")
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{not json")
    code = analysis_main(
        ["--package-root", str(package), "--baseline", str(baseline)]
    )
    assert code == 2
    assert "analysis error" in capsys.readouterr().err


def test_repro_lint_subcommand_delegates(tmp_path, capsys):
    package = materialize(tmp_path)
    assert repro_main(["lint", "--package-root", str(package)]) == 1
    assert "determinism/set-iteration" in capsys.readouterr().out
