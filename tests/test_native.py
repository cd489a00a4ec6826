"""Native C kernel backend: cross-backend bit-identity and dispatch.

The native backend's whole contract is "same bits, less time": every C
accumulation iterates in the exact element order of the NumPy
``bincount``/``add.at`` formulation it replaces, so ``y``, ledgers and
flops must be *bit-identical* across backends on all golden instances
and all three execution models — through ``apply``/``apply_many`` and
the serial shard replay.  The dispatch layer is pinned separately:
explicit/env/auto resolution, the silent no-compiler fallback with its
recorded reason, build-cache reuse, the solver threading and the CLI
surface.
"""

import numpy as np
import pytest

import repro.native.build as native_build
from repro.cli import main
from repro.errors import ConfigError
from repro.native import (
    find_compiler,
    get_kernels,
    native_status,
    ops,
    resolve_backend,
    set_default_backend,
)
from repro.native.build import CACHE_ENV, FLAG_ENV, _reset_native_state
from repro.runtime import apply_shards_serial, compile_plan, shard_plan
from repro.simulate.report import run_partition
from repro.solvers import power_iteration

from tests.test_runtime import partitioned_instances  # noqa: F401

HAVE_CC = find_compiler() is not None


@pytest.fixture
def clean_native_state():
    """Reset the process-global build state around a dispatch test."""
    _reset_native_state()
    yield
    _reset_native_state()


# ----------------------------------------------------------------------
# Cross-backend golden bit-identity
# ----------------------------------------------------------------------


@pytest.mark.native
def test_apply_bit_identical_across_backends(partitioned_instances):  # noqa: F811
    """Native y, ledger and flops equal NumPy's and the executor's,
    bitwise, on every golden instance (covers all three models)."""
    rng = np.random.default_rng(202)
    for p, _mode in partitioned_instances:
        plan = compile_plan(p)
        x = rng.standard_normal(plan.ncols)
        y_np = plan.apply_y(x, backend="numpy")
        y_nat = plan.apply_y(x, backend="native")
        assert np.array_equal(y_np, y_nat)
        ref = run_partition(p, x)
        run = plan.apply(x, backend="native")
        assert np.array_equal(run.y, ref.y)
        assert run.ledger.as_dict() == ref.ledger.as_dict()


@pytest.mark.native
def test_apply_many_bit_identical_across_backends(partitioned_instances):  # noqa: F811
    rng = np.random.default_rng(303)
    for p, _mode in partitioned_instances:
        plan = compile_plan(p)
        xs = rng.standard_normal((plan.ncols, 5))
        ys_np = plan.apply_many(xs, backend="numpy")
        ys_nat = plan.apply_many(xs, backend="native")
        assert np.array_equal(ys_np, ys_nat)
        # Each column must equal the single-RHS apply on both backends.
        for j in range(5):
            col = np.ascontiguousarray(xs[:, j])
            assert np.array_equal(ys_np[:, j], plan.apply_y(col, backend="numpy"))
            assert np.array_equal(ys_nat[:, j], plan.apply_y(col, backend="native"))


@pytest.mark.native
def test_shard_replay_bit_identical_across_backends(partitioned_instances):  # noqa: F811
    rng = np.random.default_rng(404)
    for p, _mode in partitioned_instances:
        plan = compile_plan(p)
        shards = shard_plan(p, plan)
        x = rng.standard_normal(plan.ncols)
        y_np = apply_shards_serial(plan, shards, x, backend="numpy")
        y_nat = apply_shards_serial(plan, shards, x, backend="native")
        assert np.array_equal(y_np, y_nat)
        assert np.array_equal(y_nat, plan.apply_y(x, backend="numpy"))


@pytest.mark.native
def test_ops_match_numpy_formulations():
    """Each ops wrapper equals its documented NumPy one-liner bitwise."""
    lib = get_kernels()
    rng = np.random.default_rng(606)
    n, nrows, ncols = 500, 37, 41
    rows = rng.integers(0, nrows, size=n)
    cols = rng.integers(0, ncols, size=n)
    vals = rng.standard_normal(n)
    x = rng.standard_normal(ncols)
    want = np.bincount(rows, weights=vals * x[cols], minlength=nrows)
    assert np.array_equal(ops.scatter_products(lib, rows, vals, cols, x, nrows), want)
    w = rng.standard_normal(n)
    assert np.array_equal(
        ops.scatter_sum(lib, rows, w, nrows),
        np.bincount(rows, weights=w, minlength=nrows),
    )
    xs = rng.standard_normal((ncols, 3))
    many = ops.scatter_products_many(lib, rows, vals, cols, xs, nrows)
    for j in range(3):
        assert np.array_equal(
            many[:, j],
            np.bincount(rows, weights=vals * xs[cols, j], minlength=nrows),
        )


# ----------------------------------------------------------------------
# Dispatch: env flag, overrides, no-compiler fallback
# ----------------------------------------------------------------------


def test_explicit_numpy_never_touches_the_compiler(clean_native_state, monkeypatch):
    calls = []
    monkeypatch.setattr(native_build, "find_compiler", lambda: calls.append(1))
    assert resolve_backend("numpy") == "numpy"
    assert calls == []


def test_env_flag_zero_defaults_to_numpy(clean_native_state, monkeypatch):
    monkeypatch.setenv(FLAG_ENV, "0")
    assert resolve_backend(None) == "numpy"
    # Explicit kwargs still win over the environment default.
    if HAVE_CC:
        assert resolve_backend("native") == "native"


def test_env_flag_rejects_garbage(clean_native_state, monkeypatch):
    monkeypatch.setenv(FLAG_ENV, "yes")
    with pytest.raises(ConfigError, match="REPRO_NATIVE"):
        resolve_backend(None)


def test_unknown_backend_rejected(clean_native_state):
    with pytest.raises(ConfigError, match="unknown backend"):
        resolve_backend("fortran")
    with pytest.raises(ConfigError, match="unknown backend"):
        set_default_backend("fortran")


def test_default_override_beats_env(clean_native_state, monkeypatch):
    monkeypatch.setenv(FLAG_ENV, "1")
    set_default_backend("numpy")
    assert resolve_backend(None) == "numpy"
    set_default_backend(None)
    assert resolve_backend("numpy") == "numpy"


def test_no_compiler_auto_falls_back_with_reason(clean_native_state, monkeypatch):
    """A compiler-less host silently degrades to NumPy — but records why
    — and an explicit native request is a clean ConfigError."""
    monkeypatch.setattr(native_build, "find_compiler", lambda: None)
    assert resolve_backend("auto") == "numpy"
    assert resolve_backend(None) == "numpy"
    status = native_status()
    assert status["available"] is False
    assert status["so_path"] is None
    assert "no C compiler" in status["reason"]
    with pytest.raises(ConfigError, match="native backend unavailable"):
        resolve_backend("native")


def test_no_compiler_golden_path_still_works(
    clean_native_state, monkeypatch, partitioned_instances  # noqa: F811
):
    """The full apply path under auto on a compiler-less host: NumPy
    kernels, bit-identical to the executor, no error surfaced."""
    monkeypatch.setattr(native_build, "find_compiler", lambda: None)
    p, _mode = partitioned_instances[1]
    plan = compile_plan(p)
    x = np.random.default_rng(7).standard_normal(plan.ncols)
    assert np.array_equal(plan.apply_y(x), run_partition(p, x).y)


def test_failed_build_attempt_is_cached(clean_native_state, monkeypatch):
    calls = []

    def no_cc():
        calls.append(1)
        return None

    monkeypatch.setattr(native_build, "find_compiler", no_cc)
    assert get_kernels() is None
    assert get_kernels() is None
    assert calls == [1]  # one probe, then the cached failure


# ----------------------------------------------------------------------
# Build cache
# ----------------------------------------------------------------------


@pytest.mark.native
def test_build_cache_reused_across_loads(clean_native_state, monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    lib = get_kernels()
    assert lib is not None and lib.path.parent == tmp_path
    assert native_status()["built_this_process"] is True
    _reset_native_state()
    lib2 = get_kernels()
    assert lib2 is not None and lib2.path == lib.path
    assert native_status()["built_this_process"] is False  # cache hit


@pytest.mark.native
def test_corrupt_cache_entry_evicted_and_rebuilt(
    clean_native_state, monkeypatch, tmp_path
):
    # Plant the corrupt entry at the exact expected cache path *before*
    # any load in this state (overwriting an already-mmapped .so would
    # be undefined behaviour, not an eviction case).
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    so = tmp_path / f"kernels-{native_build._build_key(find_compiler())}.so"
    so.write_bytes(b"not a shared object")
    lib = get_kernels()
    assert lib is not None and lib.path == so
    assert native_status()["built_this_process"] is True


# ----------------------------------------------------------------------
# Solver threading
# ----------------------------------------------------------------------


@pytest.mark.native
def test_solver_backend_bit_identical(partitioned_instances):  # noqa: F811
    p, _mode = partitioned_instances[1]  # square s2d instance
    res_np = power_iteration(p, iters=8, backend="numpy")
    res_nat = power_iteration(p, iters=8, backend="native")
    assert np.array_equal(res_np.x, res_nat.x)
    assert res_np.history == res_nat.history
    assert res_np.comm_words == res_nat.comm_words


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def test_cli_native_info(capsys):
    assert main(["native-info"]) == 0
    out = capsys.readouterr().out
    assert "available=" in out
    assert "cache_dir=" in out
    assert "default_backend=" in out


@pytest.mark.native
def test_cli_solve_backend_native(capsys):
    rc = main(
        [
            "solve", "--matrix", "trdheim", "--scheme", "s2d",
            "--k", "3", "--scale", "tiny", "--backend", "native",
        ]
    )
    assert rc == 0
    assert "backend=native" in capsys.readouterr().out


def test_cli_solve_backend_native_unavailable(clean_native_state, monkeypatch):
    monkeypatch.setattr(native_build, "find_compiler", lambda: None)
    with pytest.raises(SystemExit, match="native backend unavailable"):
        main(
            [
                "solve", "--matrix", "trdheim", "--scheme", "s2d",
                "--k", "3", "--scale", "tiny", "--backend", "native",
            ]
        )


def test_cli_table_backend_flag(clean_native_state, capsys):
    """`table --backend numpy` runs end to end with the process-wide
    override in force (the fixture clears it afterwards)."""
    rc = main(["table", "--id", "2", "--scale", "tiny", "--backend", "numpy"])
    assert rc == 0
    assert resolve_backend(None) == "numpy"  # the override is active
    assert capsys.readouterr().out
