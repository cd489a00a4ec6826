"""Native C kernel backend: cross-backend bit-identity and dispatch.

The native backend's whole contract is "same bits, less time": every C
accumulation iterates in the exact element order of the NumPy
``bincount``/``add.at`` formulation it replaces, so ``y``, ledgers and
flops must be *bit-identical* across backends on all golden instances
and all three execution models — through ``apply``/``apply_y``.  The
fused plan kernel (one C call per apply) is pinned on the golden
instances, the partitioner families and the edge cases of its
row-segmented sum (-0.0 products, empty rows, no fold, K=1, inf/NaN),
together with its marshalling checks.  The library's export surface is
exactly its bound whole-call entries.  The dispatch layer is pinned
separately: explicit/env/auto resolution, the silent no-compiler
fallback with its recorded reason, build-cache reuse, the solver
threading and the CLI surface.
"""

import copy
import re

import numpy as np
import pytest
import scipy.sparse as sp

import repro.native.build as native_build
from repro.cli import main
from repro.engine import PartitionEngine
from repro.errors import ConfigError, SimulationError, VerificationError
from repro.native import (
    find_compiler,
    get_kernels,
    native_status,
    ops,
    resolve_backend,
    set_default_backend,
)
from repro.native.build import (
    _SIGNATURES,
    _SOURCE,
    CACHE_ENV,
    FLAG_ENV,
    _reset_native_state,
)
from repro.runtime import compile_plan
from repro.runtime.plan import _NativeApply
from repro.simulate.report import run_partition
from repro.solvers import power_iteration
from repro.sparse.coo import canonical_coo
from repro.verify import check_plan

from tests.test_partitioner_native import FAMILIES
from tests.test_runtime import partitioned_instances  # noqa: F401

HAVE_CC = find_compiler() is not None


@pytest.fixture
def clean_native_state():
    """Reset the process-global build state around a dispatch test."""
    _reset_native_state()
    yield
    _reset_native_state()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality: -0.0 differs from +0.0, a NaN equals only a NaN
    with the same payload."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
        assert _same_bits(y_np, y_nat)
        ref = run_partition(p, x)
        run = plan.apply(x, backend="native")
        assert np.array_equal(run.y, ref.y)
        assert run.ledger.as_dict() == ref.ledger.as_dict()


def test_exports_are_exactly_the_bound_entries():
    """Every ``EXPORT`` symbol of ``kernels.c`` has a ctypes binding, and
    every binding an export: a stage loop cannot be exported again
    without a binding, nor bound without an export."""
    source = _SOURCE.read_text()
    exported = re.findall(r"^EXPORT\s+[\w\s*]+?\b(repro_\w+)\s*\(", source, re.M)
    assert len(exported) == len(set(exported))
    assert set(exported) == set(_SIGNATURES) | {"repro_native_abi"}
    assert len(exported) == 6


# ----------------------------------------------------------------------
# The fused plan kernel: one call, bit-identical, every model and edge
# ----------------------------------------------------------------------


def _plan(a, method: str, k: int):
    eng = PartitionEngine(a, seed=3)
    return eng.compiled_plan(eng.plan(method, k))


def _assert_fused_matches_numpy(plan, *xs) -> None:
    """Native apply_y equals the NumPy apply bitwise on every x."""
    for x in xs:
        y = plan.apply_y(x, backend="native")
        assert _same_bits(y, plan._apply_y_numpy(x))


#: Engine method -> execution model of its compiled plan.
MODELS = {"s2d-heuristic": "single", "finegrain": "two", "s2d-bounded": "routed"}


@pytest.mark.native
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fused_apply_bit_identical_on_families(family):
    """Each partitioner family under all three execution models."""
    a = FAMILIES[family]()
    rng = np.random.default_rng(808)
    for method, mode in MODELS.items():
        plan = _plan(a, method, 8)
        assert plan.executor == mode
        _assert_fused_matches_numpy(plan, *rng.standard_normal((4, plan.ncols)))


@pytest.mark.native
@pytest.mark.parametrize("method", sorted(MODELS) + ["1d-rowwise"])
def test_fused_apply_negative_zero_products_sum_to_positive_zero(method):
    """A row whose every product is -0.0 comes out +0.0, as np.bincount
    (which starts each bin at +0.0) gives it — also with no fold term
    to add a +0.0 afterwards (1D row-wise)."""
    a = FAMILIES["circuit"]()
    plan = _plan(a, method, 4)
    x = np.random.default_rng(9).standard_normal(plan.ncols)
    for row in (0, int(np.bincount(a.row).argmax())):
        # x[c] = -0.0 under a positive value, +0.0 under a negative one.
        on_row = a.row == row
        x[a.col[on_row]] = np.where(a.data[on_row] > 0, -0.0, 0.0)
        assert np.all(np.signbit(a.data[on_row] * x[a.col[on_row]]))
        y = plan.apply_y(x, backend="native")
        assert _same_bits(y[row : row + 1], np.zeros(1))
        _assert_fused_matches_numpy(plan, x, -x)


@pytest.mark.native
@pytest.mark.parametrize("method", sorted(MODELS))
def test_fused_apply_rows_without_main_nonzeros(method):
    """Empty rows (no products at all) and rows whose products all go
    through the precompute give bincount's +0.0 / fold-only sums."""
    a = FAMILIES["knn"]()
    keep = (a.row % 7) != 3  # every seventh row empty
    a = canonical_coo(
        sp.coo_matrix((a.data[keep], (a.row[keep], a.col[keep])), shape=a.shape)
    )
    rng = np.random.default_rng(10)
    for k in (1, 8):
        plan = _plan(a, method, k)
        if plan.main_rows is not None:
            has_main = np.bincount(plan.main_rows, minlength=plan.nrows) > 0
            assert not has_main.all()
        y = plan.apply_y(rng.standard_normal(plan.ncols), backend="native")
        assert _same_bits(y[3::7], np.zeros(y[3::7].size))
        _assert_fused_matches_numpy(plan, *rng.standard_normal((3, plan.ncols)))


@pytest.mark.native
def test_fused_apply_without_fold_and_at_k1():
    """Plans with no fold (1D row-wise) and K=1 plans of every model."""
    a = FAMILIES["rmat"]()
    rng = np.random.default_rng(11)
    plans = [_plan(a, "1d-rowwise", 4)] + [_plan(a, m, 1) for m in MODELS]
    assert plans[0].fold_rows.size == 0 and plans[0].main_rows is not None
    assert {p.executor for p in plans[1:]} == set(MODELS.values())
    for plan in plans:
        assert plan.nparts in (1, 4)
        _assert_fused_matches_numpy(plan, *rng.standard_normal((4, plan.ncols)))


@pytest.mark.native
@pytest.mark.parametrize("method", sorted(MODELS))
def test_fused_apply_with_inf_and_nan_in_x(method):
    a = FAMILIES["circuit"]()
    plan = _plan(a, method, 4)
    x = np.random.default_rng(12).standard_normal(plan.ncols)
    x[[3, 40]] = np.inf
    x[[7, 41]] = np.nan
    x[[9, 42]] = -np.inf
    y = plan.apply_y(x, backend="native")
    assert np.isnan(y).any() and np.isinf(y).any()
    _assert_fused_matches_numpy(plan, x, np.ascontiguousarray(x[::-1]))


class _CountingLib:
    """Stands in for the loaded library and counts every kernel call."""

    def __init__(self, lib):
        self.calls = []
        for name in native_build._SIGNATURES:
            fn = getattr(lib, name.removeprefix("repro_"))
            setattr(self, name.removeprefix("repro_"), self._counted(name, fn))

    def _counted(self, name, fn):
        def call(*args):
            self.calls.append(name)
            return fn(*args)

        return call


@pytest.mark.native
def test_every_native_apply_is_one_kernel_call(partitioned_instances):  # noqa: F811
    rng = np.random.default_rng(13)
    for p, _mode in partitioned_instances:
        plan = compile_plan(p)
        lib = _CountingLib(get_kernels())
        plan.__dict__["_native_state"] = _NativeApply(plan, lib)
        plan.apply_y(rng.standard_normal(plan.ncols), backend="native")
        assert lib.calls == ["repro_plan_apply"]


@pytest.mark.native
def test_native_apply_rejects_bad_x_before_the_c_call(partitioned_instances):  # noqa: F811
    """The bare-pointer entry points refuse a non-float64, strided or
    wrong-length vector instead of handing C a bad address."""
    p, _mode = partitioned_instances[2]  # routed
    plan = compile_plan(p)
    lib = _CountingLib(get_kernels())
    state = _NativeApply(plan, lib)
    x = np.random.default_rng(14).standard_normal(plan.ncols)
    with pytest.raises(TypeError, match="x must be a C-contiguous float64"):
        state.apply_y(x.astype(np.float32))
    with pytest.raises(TypeError, match="not C-contiguous"):
        state.apply_y(np.repeat(x, 2)[::2])
    with pytest.raises(SimulationError, match="expected"):
        state.apply_y(x[:-1])
    with pytest.raises(SimulationError, match="expected"):
        state.apply_y(list(x))
    assert lib.calls == []
    xs = np.random.default_rng(15).standard_normal((plan.ncols, 3))
    # The public surface still converts: a strided column is copied once.
    assert _same_bits(
        plan.apply_y(np.asfortranarray(xs)[:, 1], backend="native"),
        plan.apply_y(np.ascontiguousarray(xs[:, 1]), backend="numpy"),
    )


@pytest.mark.native
def test_shuffled_main_section_is_refused(partitioned_instances):  # noqa: F811
    """A plan whose main section is out of row order fails the plan-IR
    check and the native state's construction, instead of returning a
    wrong y."""
    p, _mode = partitioned_instances[1]  # s2d single-phase
    plan = copy.deepcopy(compile_plan(p))
    assert check_plan(plan).ok
    perm = np.random.default_rng(16).permutation(plan.main_rows.size)
    plan.main_rows = plan.main_rows[perm]
    plan.main_cols = plan.main_cols[perm]
    plan.main_vals = plan.main_vals[perm]
    report = check_plan(plan)
    assert [v.check for v in report.violations] == ["plan.main-order"]
    with pytest.raises(VerificationError, match=r"CommPlan\(executor='single'.*main_rows"):
        plan.apply_y(np.ones(plan.ncols), backend="native")
    with pytest.raises(VerificationError, match="main_rows is not nondecreasing"):
        _NativeApply(plan, get_kernels())


# ----------------------------------------------------------------------
# Algorithm 1's kernels: block DM and the flip loop
# ----------------------------------------------------------------------


def _one_block(dense: np.ndarray):
    """The flat arrays ``ops.block_dm`` takes for one block with the
    pattern of ``dense``: row-major adjacency (``rptr``, ``adj``) and
    column-major adjacency (``cptr``, ``cadj``)."""
    rows, cols = np.nonzero(dense)
    nr, nc = dense.shape
    rptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=nr))))
    order = np.lexsort((rows, cols))
    cptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=nc))))
    return {
        "row_off": np.array([0, nr], dtype=np.int64),
        "col_off": np.array([0, nc], dtype=np.int64),
        "rptr": rptr.astype(np.int64),
        "adj": cols.astype(np.int64),
        "cptr": cptr.astype(np.int64),
        "cadj": rows[order].astype(np.int64),
    }


@pytest.mark.native
def test_block_dm_labels_do_not_depend_on_the_matching():
    """Reversing every row's adjacency makes Hopcroft–Karp find another
    maximum matching; the labels from either matching, and the kernel's
    from either adjacency, are the same."""
    from repro.dm.decomposition import coarse_labels
    from repro.dm.matching import hopcroft_karp

    lib = get_kernels()
    rng = np.random.default_rng(5)
    dense = rng.random((9, 12)) < 0.3
    dense[:4, :2] = True  # a dense corner: many maximum matchings
    dense[7:, :] = False
    dense[7:, 0] = True  # two rows sharing one column: structurally singular
    arrays = _one_block(dense)
    permuted = dict(arrays)
    rptr = arrays["rptr"]
    permuted["adj"] = np.concatenate(
        [arrays["adj"][rptr[u]:rptr[u + 1]][::-1] for u in range(dense.shape[0])]
    )
    nr, nc = dense.shape
    m1 = hopcroft_karp(rptr, arrays["adj"], nr, nc)
    m2 = hopcroft_karp(rptr, permuted["adj"], nr, nc)
    assert not np.array_equal(m1[0], m2[0])
    want = coarse_labels(rptr, arrays["adj"], arrays["cptr"], arrays["cadj"], *m1)
    other = coarse_labels(rptr, arrays["adj"], arrays["cptr"], arrays["cadj"], *m2)
    assert all(np.array_equal(a, b) for a, b in zip(want, other))
    for flat in (arrays, permuted):
        row_label, col_label, msize = ops.block_dm(lib, **flat)
        assert np.array_equal(row_label, want[0]) and np.array_equal(col_label, want[1])
        assert msize.tolist() == [np.count_nonzero(m1[0] != -1)]
    assert {0, 1, 2} <= set(want[0].tolist()) | set(want[1].tolist())


def _flip_both(**flat):
    """``(chosen, rounds, loads)`` of the NumPy and native flip loops."""
    from repro.core.s2d import _flip_numpy

    out = []
    for run in (_flip_numpy, lambda **kw: ops.s2d_flip(get_kernels(), **kw)):
        loads = flat["loads"].copy()
        chosen, rounds = run(**{**flat, "loads": loads})
        out.append((chosen.tolist(), rounds, loads.tolist()))
    return out


@pytest.mark.native
@pytest.mark.parametrize("w_lim", [5.0, 12.0])
def test_s2d_flip_cap_is_inclusive_at_equality(w_lim):
    """A flip landing exactly on ``max(w_max, w_lim)`` is taken, one
    nonzero more is not; the cap is ``w_max`` (10) for ``w_lim`` 5 and
    ``w_lim`` itself for 12."""
    cap = max(10, w_lim)
    flat = dict(
        order=np.array([0, 1, 2], dtype=np.int64),
        row_part=np.array([0, 0, 2], dtype=np.int64),
        col_part=np.array([1, 1, 1], dtype=np.int64),
        h_size=np.array([int(cap) - 6, 1, 0], dtype=np.int64),
        loads=np.array([10, 6, 3], dtype=np.int64),
        w_lim=w_lim,
        max_rounds=64,
    )
    numpy_run, native_run = _flip_both(**flat)
    assert numpy_run == native_run
    chosen, rounds, loads = native_run
    # Block 0 fills part 1 to the cap exactly; block 1 would exceed it,
    # block 2 has no H.  A second round changes nothing.
    assert chosen == [True, False, False] and rounds == 2
    assert loads == [10 - (int(cap) - 6), int(cap), 3]


@pytest.mark.native
def test_s2d_flip_identical_on_random_instances():
    rng = np.random.default_rng(8)
    for trial in range(50):
        k, nb = int(rng.integers(2, 9)), int(rng.integers(0, 60))
        rows = rng.integers(0, k, nb)
        cols = (rows + rng.integers(1, k, nb)) % k
        h = rng.integers(0, 6, nb)
        flat = dict(
            order=rng.permutation(nb).astype(np.int64), row_part=rows, col_part=cols,
            h_size=h, loads=rng.integers(0, 40, k), w_lim=float(rng.integers(0, 40)),
            max_rounds=int(rng.integers(1, 5)),
        )
        numpy_run, native_run = _flip_both(**flat)
        assert numpy_run == native_run, trial


@pytest.mark.native
def test_block_dm_and_flip_reject_wrong_dtype_or_layout():
    lib = get_kernels()
    flat = _one_block(np.eye(3, dtype=bool))
    for name, bad in (
        ("row_off", flat["row_off"].astype(np.int32)),
        ("adj", np.repeat(flat["adj"], 2)[::2]),
        ("cadj", flat["cadj"].astype(float)),
    ):
        with pytest.raises(TypeError, match=f"block_dm: {name}"):
            ops.block_dm(lib, **{**flat, name: bad})
    good = dict(
        order=np.arange(2, dtype=np.int64), row_part=np.zeros(2, dtype=np.int64),
        col_part=np.ones(2, dtype=np.int64), h_size=np.ones(2, dtype=np.int64),
        loads=np.array([4, 0], dtype=np.int64), w_lim=4.0, max_rounds=8,
    )
    for name, bad in (
        ("loads", good["loads"].astype(np.int32)),
        ("order", np.array([[0, 1], [1, 0]], dtype=np.int64)[:, 0]),
        ("h_size", good["h_size"].astype(float)),
    ):
        with pytest.raises(TypeError, match=f"s2d_flip: {name}"):
            ops.s2d_flip(lib, **{**good, name: bad})


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
