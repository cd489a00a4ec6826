"""CLI smoke tests."""

import pytest

from repro.cli import main
from repro.experiments import TABLES, ExperimentConfig, table_grid
from repro.sweep import ArtifactCache, Campaign
from tests.conftest import cli_usage_error


def test_cli_suite(capsys):
    assert main(["suite", "--which", "table1", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "crystk02" in out
    assert len(out.splitlines()) == 8


def test_cli_suite_table4(capsys):
    assert main(["suite", "--which", "table4", "--scale", "tiny"]) == 0
    assert "rmat_20" in capsys.readouterr().out


def test_cli_figure1(capsys):
    assert main(["figure1"]) == 0
    out = capsys.readouterr().out
    assert "lambda_{3->2} = 3" in out


def test_cli_table1(capsys):
    assert main(["table", "--id", "1", "--scale", "tiny"]) == 0
    assert "Table I" in capsys.readouterr().out


def test_cli_table4(capsys):
    assert main(["table", "--id", "4", "--scale", "tiny"]) == 0
    assert "dense rows" in capsys.readouterr().out


def test_cli_table5_reports_every_claim(capsys):
    assert main(["table", "--id", "5", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    claims = [line for line in out.splitlines() if line.startswith("claim: ")]
    assert len(claims) == len(TABLES[5].claims)
    assert all(line.startswith("claim: ok ") for line in claims), claims


def test_cli_partition_suite_matrix(capsys):
    assert main(
        ["partition", "--matrix", "c-big", "--scheme", "s2d", "--k", "4",
         "--scale", "tiny"]
    ) == 0
    out = capsys.readouterr().out
    assert "scheme=s2D" in out
    assert "volume=" in out


def test_cli_partition_mtx_file(tmp_path, small_square, capsys):
    from repro.sparse import write_matrix_market

    path = tmp_path / "m.mtx"
    write_matrix_market(small_square, path)
    assert main(
        ["partition", "--mtx", str(path), "--scheme", "2d", "--k", "2",
         "--scale", "tiny"]
    ) == 0
    assert "scheme=2D" in capsys.readouterr().out


def test_cli_solve_refuses_a_rectangular_matrix(tmp_path, small_rect, capsys):
    from repro.sparse import write_matrix_market

    path = tmp_path / "rect.mtx"
    write_matrix_market(small_rect, path)
    err = cli_usage_error(capsys, ["solve", "--mtx", str(path), "--k", "2"])
    assert "solve needs a square matrix" in err


def test_cli_partition_requires_one_source(capsys):
    for argv in (
        ["partition", "--scheme", "s2d"],
        ["partition", "--matrix", "c-big", "--mtx", "x.mtx"],
    ):
        assert "exactly one of --matrix / --mtx" in cli_usage_error(capsys, argv)


def test_cli_unknown_matrix(capsys):
    err = cli_usage_error(capsys, ["partition", "--matrix", "nope", "--scale", "tiny"])
    assert "unknown suite matrix 'nope'" in err


@pytest.mark.parametrize("cmd", ["partition", "spy", "simulate", "solve", "check plan"])
def test_cli_refuses_k_below_one_before_any_output(cmd, capsys):
    err = cli_usage_error(
        capsys, [*cmd.split(), "--matrix", "c-big", "--scale", "tiny", "--k", "0"]
    )
    assert "--k must be at least 1, got 0" in err


@pytest.mark.parametrize(
    "scheme", ["1d", "2d-b", "1d-b", "s2d-opt", "s2d-b", "s2d-mg"]
)
def test_cli_all_schemes(scheme, capsys):
    assert main(
        ["partition", "--matrix", "trdheim", "--scheme", scheme, "--k", "4",
         "--scale", "tiny"]
    ) == 0
    assert "speedup=" in capsys.readouterr().out


def test_cli_table_negative_jobs_clean_error(capsys):
    rc = main(["table", "--id", "2", "--scale", "tiny", "--jobs", "-4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "--jobs" in err and "Traceback" not in err


def test_cli_campaign_negative_jobs_clean_error(tmp_path, capsys):
    rc = main(
        ["campaign", "run", "--table", "2", "--scale", "tiny",
         "--dir", str(tmp_path / "camp"), "--jobs", "-1"]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "--jobs" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value", [("--watchdog", "0"), ("--watchdog", "nan"), ("--max-attempts", "0")]
)
def test_cli_campaign_refuses_a_bad_watchdog_or_budget(tmp_path, capsys, flag, value):
    """A zero watchdog or attempt budget would quarantine every cell;
    it is refused with one error line, and the directory is left empty."""
    camp = tmp_path / "camp"
    camp.mkdir()
    argv = ["campaign", "run", "--table", "2", "--scale", "tiny",
            "--dir", str(camp), "--quiet", flag, value]
    err = cli_usage_error(capsys, argv)
    assert ("watchdog" if flag == "--watchdog" else "max_attempts") in err
    assert list(camp.iterdir()) == []


def test_cli_campaign_refuses_a_property_table(tmp_path, capsys):
    """``campaign --table`` offers only the registry's tables with a
    sweep grid; Table I is refused by argparse before anything runs."""
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "run", "--table", "1", "--dir", str(tmp_path / "camp")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --table: invalid choice: 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "camp").exists()


def test_cli_campaign_resume_without_a_campaign_is_refused(tmp_path, capsys):
    """``campaign resume`` over a directory with no store starts
    nothing: one ``s2d-repro: error:`` line, exit 2, and the directory
    is left empty."""
    empty = tmp_path / "empty"
    empty.mkdir()
    argv = ["campaign", "resume", "--table", "2", "--scale", "tiny",
            "--dir", str(empty)]
    err = cli_usage_error(capsys, argv)
    assert "no campaign to resume" in err and "campaign run" in err
    assert str(empty) in err
    assert list(empty.iterdir()) == []


def test_cli_campaign_refusals_are_one_line_errors(tmp_path, capsys):
    """Resuming another table's campaign (``CampaignError``) and a
    directory of an older release's journal (``UsageError``) both end
    in one ``s2d-repro: error:`` line and exit 2, not a traceback."""
    table2 = tmp_path / "t2"
    grid = table_grid(2, ExperimentConfig(scale="tiny"))
    camp = Campaign(grid, table2)
    ArtifactCache(table2 / "cache").append_event(
        {"ev": "campaign", "cells": len(camp.cell_uids), "sig": camp.grid_sig}
    )
    old = tmp_path / "old"
    old.mkdir()
    (old / "journal.jsonl").write_text("")
    resume = ["campaign", "resume", "--scale", "tiny"]
    runs = [
        ([*resume, "--table", "3", "--dir", str(table2)], "different grid"),
        ([*resume, "--table", "2", "--dir", str(old)], "journal.jsonl"),
        (["campaign", "status", "--dir", str(old)], "journal.jsonl"),
    ]
    for argv, needle in runs:
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, argv
        assert err.startswith("s2d-repro: error: ") and err.count("\n") == 1, err
        assert needle in err and "Traceback" not in err
