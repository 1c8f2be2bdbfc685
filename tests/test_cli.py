"""Tests for the command-line interface."""

import pytest

from repro.cli import build_bench_client_parser, build_parser, build_serve_parser, main
from repro.tuning import TuningConfig

PAPER_QUERY = (
    '(SELECT {vehicle.vehicle#, cargo.desc, cargo.quantity} { } '
    '{vehicle.desc = "refrigerated truck", supplier.name = "SFI"} '
    '{collects, supplies} {supplier, cargo, vehicle})'
)


def test_parser_defaults():
    args = build_parser().parse_args([PAPER_QUERY])
    assert args.schema == "example"
    assert not args.priority_queue
    assert args.budget is None


def test_cli_optimizes_paper_query(capsys):
    exit_code = main([PAPER_QUERY])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Eliminated classes: supplier" in captured.out
    assert 'cargo.desc = "frozen food"' in captured.out
    assert "Optimized query:" in captured.out


def test_cli_with_options(capsys):
    exit_code = main(
        [PAPER_QUERY, "--no-class-elimination", "--priority-queue", "--budget", "5"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Eliminated classes" not in captured.out


def test_cli_evaluation_schema(capsys):
    query = (
        '(SELECT {cargo.code} { } {vehicle.desc = "refrigerated truck"} '
        "{collects} {cargo, vehicle})"
    )
    exit_code = main(["--schema", "evaluation", query])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Predicate classification" in captured.out


def test_cli_rejects_bad_query(capsys):
    exit_code = main(["(SELECT {nothing})"])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert "error" in captured.err


def test_cli_without_query_prints_help(capsys):
    exit_code = main([])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "usage" in captured.out.lower()


def test_cli_experiments_quick(capsys):
    exit_code = main(["--experiments", "--quick"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Table 4.1" in captured.out
    assert "Table 4.2" in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        # "--port x" ends a parse that accepted the engine with another
        # error, so this case never boots a server.
        ["serve", "--engine", "parallel", "--port", "x"],
        ["bench-client", "--engine", "parallel", "--port", "x"],
        ["--execute", "--engine", "parallel", PAPER_QUERY],
        ["--experiments", "--engine", "parallel"],
    ],
)
def test_engine_flags_refuse_parallel(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2  # argparse's usage error, before any work
    assert "invalid choice: 'parallel'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "build", [build_parser, build_serve_parser, build_bench_client_parser]
)
def test_no_command_takes_workers(build):
    parser = build()
    engine = next(action for action in parser._actions if "--engine" in action.option_strings)
    assert engine.choices == ["rowwise", "vectorized"]
    assert not any("--workers" in action.option_strings for action in parser._actions)


@pytest.mark.parametrize(
    "argv, components",
    [
        ([], None),
        (["--self-tune"], (True, True)),
    ],
)
def test_self_tune_selects_components(argv, components):
    enabled = build_serve_parser().parse_args(argv).self_tune
    if components is None:
        assert enabled is False
    else:
        # The bare switch runs enable_self_tuning() with the default config.
        assert enabled is True
        config = TuningConfig()
        assert (config.auto_index, config.learn_rules) == components


def test_self_tune_refuses_unknown_component(capsys):
    # --self-tune takes no value: a component name is a stray argument.
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--self-tune", "turbo"])
    assert exit_info.value.code == 2  # argparse's usage error, before any work
    assert "unrecognized arguments: turbo" in capsys.readouterr().err
