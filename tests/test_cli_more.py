"""CLI coverage for the extension subcommands and schemes."""

import pytest

from repro.cli import main
from tests.conftest import cli_usage_error


def test_cli_spy(capsys):
    assert main(["spy", "--matrix", "trdheim", "--k", "3", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "|" in out and "-" in out


def test_cli_spy_refuses_large(capsys):
    err = cli_usage_error(
        capsys, ["spy", "--matrix", "c-big", "--scale", "tiny", "--max-dim", "10"]
    )
    assert "max-dim" in err


@pytest.mark.parametrize("scheme", ["2d-orb", "s2d-bal"])
def test_cli_extension_schemes(scheme, capsys):
    assert main(
        ["partition", "--matrix", "trdheim", "--scheme", scheme, "--k", "4",
         "--scale", "tiny"]
    ) == 0
    assert "speedup=" in capsys.readouterr().out


def test_cli_simulate_single_scheme(capsys):
    assert main(
        ["simulate", "--matrix", "trdheim", "--scheme", "s2d", "--k", "4",
         "--scale", "tiny"]
    ) == 0
    out = capsys.readouterr().out
    assert "scheme=s2D" in out and "speedup=" in out


def test_cli_simulate_profile(capsys):
    assert main(
        ["simulate", "--matrix", "trdheim", "--scheme", "1d", "--k", "4",
         "--scale", "tiny", "--profile"]
    ) == 0
    out = capsys.readouterr().out
    assert "phase" in out and "total" in out  # wall-clock stage table
    assert "bandwidth=" in out and "latency=" in out  # model breakdown


def test_cli_simulate_all_methods(capsys):
    assert main(
        ["simulate", "--matrix", "trdheim", "--k", "4", "--scale", "tiny", "--all"]
    ) == 0
    out = capsys.readouterr().out
    # one summary line per registered method
    from repro.engine import available_methods

    assert out.count("speedup=") == len(available_methods())


def test_cli_simulate_requires_one_source(capsys):
    assert "exactly one" in cli_usage_error(capsys, ["simulate"])


def test_cli_simulate_scheme_conflicts_with_all(capsys):
    err = cli_usage_error(
        capsys,
        ["simulate", "--matrix", "trdheim", "--scheme", "2d", "--all", "--scale", "tiny"],
    )
    assert "conflicts" in err


def test_cli_table_with_default_scale_env(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SCALE", "tiny")
    assert main(["table", "--id", "4"]) == 0
    assert "scale=tiny" in capsys.readouterr().out


def test_cli_check_plan_suite_matrix(capsys):
    assert main(
        ["check", "plan", "--matrix", "crystk02", "--scale", "tiny", "--k", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert out.startswith("CommPlan(executor='single'): OK (")


def _saved_plan(small_square, path, *, corrupt: bool = False):
    from repro.engine import PartitionEngine
    from repro.partition.serialize import save_plan

    eng = PartitionEngine(small_square, seed=5)
    plan = eng.compiled_plan(eng.plan("finegrain", 3))
    assert plan.fold_rows.size
    if corrupt:
        plan.fold_rows[0] = plan.nrows + 4
    save_plan(plan, path)
    return path


def test_cli_check_plan_file_clean(tmp_path, small_square, capsys):
    path = _saved_plan(small_square, tmp_path / "plan.plan")
    assert main(["check", "plan", "--plan-file", str(path)]) == 0
    assert "CommPlan(executor='two'): OK (" in capsys.readouterr().out


def test_cli_check_plan_file_fold_rows_out_of_range(tmp_path, small_square, capsys):
    path = _saved_plan(small_square, tmp_path / "bad.plan", corrupt=True)
    assert main(["check", "plan", "--plan-file", str(path)]) == 1
    out = capsys.readouterr().out
    assert "violation(s)" in out
    assert "[plan.index-bounds] plan.fold_rows" in out


def test_cli_check_plan_file_that_cannot_be_opened(tmp_path, capsys):
    for path in (tmp_path / "missing.plan", tmp_path):
        err = cli_usage_error(capsys, ["check", "plan", "--plan-file", str(path)])
        assert f"cannot read --plan-file {path}" in err


@pytest.mark.parametrize(
    "content",
    [b"a text file, not a plan\n", b"PK\x03\x04 an archive", b""],
    ids=["text", "npz", "empty"],
)
def test_cli_check_plan_file_that_does_not_decode(content, tmp_path, capsys):
    path = tmp_path / "junk.plan"
    path.write_bytes(content)
    assert main(["check", "plan", "--plan-file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("s2d-repro: error: not a repro save file") and err.count("\n") == 1


@pytest.mark.parametrize(
    "sources",
    [
        ["--matrix", "crystk02", "--mtx", "x.mtx"],
        ["--plan-file", "p.npz", "--matrix", "crystk02"],
        ["--plan-file", "p.npz", "--mtx", "x.mtx"],
        [],
    ],
    ids=["matrix+mtx", "plan-file+matrix", "plan-file+mtx", "none"],
)
def test_cli_check_plan_requires_one_source(sources, capsys):
    err = cli_usage_error(capsys, ["check", "plan", *sources])
    assert "exactly one of --matrix / --mtx / --plan-file" in err


@pytest.mark.parametrize("cmd", ["partition", "simulate", "solve", "check plan"])
def test_cli_unreadable_mtx_is_one_error_line(cmd, tmp_path, capsys):
    """A missing file and a file without the MatrixMarket header each
    give one ``s2d-repro: error:`` line and exit status 2, no traceback."""
    headless = tmp_path / "headless.mtx"
    headless.write_text("3 3 1\n1 1 1.0\n")
    for path, reason in (
        (tmp_path / "missing.mtx", "No such file"),
        (headless, "missing %%MatrixMarket header"),
    ):
        assert main([*cmd.split(), "--mtx", str(path), "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"s2d-repro: error: cannot read --mtx {path}: ")
        assert reason in err and err.count("\n") == 1
