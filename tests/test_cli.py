"""CLI smoke tests."""

import pytest

from repro.cli import main


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


def test_cli_partition_requires_one_source():
    with pytest.raises(SystemExit):
        main(["partition", "--scheme", "s2d"])
    with pytest.raises(SystemExit):
        main(["partition", "--matrix", "c-big", "--mtx", "x.mtx"])


def test_cli_unknown_matrix():
    with pytest.raises(SystemExit, match="unknown suite matrix"):
        main(["partition", "--matrix", "nope", "--scale", "tiny"])


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
