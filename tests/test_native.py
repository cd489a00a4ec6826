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
exactly its bound whole-call entries.  Algorithm 1's kernels are
checked against the NumPy oracles of ``tests/dm_oracle.py``.  The
build layer is pinned separately: the two-valued per-call ``backend``,
the refusal of every native consumer on a host without a compiler
(with the recorded reason), build-cache reuse, the solver threading
and the CLI surface.
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
)
from repro.native.build import (
    _SIGNATURES,
    _SOURCE,
    CACHE_ENV,
    _reset_native_state,
)
from repro.partition.types import SpMVPartition
from repro.runtime import compile_plan
from repro.runtime.plan import _NativeApply
from repro.simulate.report import run_partition
from repro.solvers import conjugate_gradient, power_iteration
from repro.sparse.coo import canonical_coo
from repro.verify import check_plan

from tests import dm_oracle
from tests.conftest import cli_usage_error
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


def _rows_of_lengths(lengths, seed: int):
    """A rectangular matrix whose row i holds ``lengths[i]`` nonzeros in
    columns of its own, so an entry of ``x`` reaches one row only."""
    rows = np.repeat(np.arange(len(lengths)), lengths)
    vals = np.random.default_rng(seed).standard_normal(rows.size)
    shape = (len(lengths), max(rows.size, 1))
    return canonical_coo(sp.coo_matrix((vals, (rows, np.arange(rows.size))), shape=shape))


@pytest.mark.native
@pytest.mark.parametrize("tail", [0, 1, 2, 3])
def test_fused_apply_row_groups_of_four_and_the_tail(tail):
    """The main section runs four rows in lockstep, then the nrows % 4
    last rows one at a time: both match NumPy at every remainder, on
    a main section alone and with a precompute and fold beside it."""
    rng = np.random.default_rng(20 + tail)
    n = 40 + tail
    a = canonical_coo(sp.random(n, n, density=0.15, random_state=rng, format="coo"))
    lengths = rng.integers(0, 12, size=20 + tail)
    for plan in (
        _plan(a, "1d-rowwise", 1),
        _plan(a, "s2d-heuristic", 4),
        _plan(_rows_of_lengths(lengths, tail), "1d-rowwise", 1),
    ):
        assert plan.nrows % 4 == tail and plan.main_rows is not None
        _assert_fused_matches_numpy(plan, *rng.standard_normal((3, plan.ncols)))


@pytest.mark.native
@pytest.mark.parametrize("long_at", [0, 1, 2, 3])
def test_fused_apply_one_long_row_beside_three_empty_ones(long_at):
    """A group whose lockstep part is empty: three rows come out +0.0
    and the long one runs its whole length alone."""
    lengths = [0, 0, 0, 0, 3, 3, 3, 3, 2]
    lengths[long_at] = 57
    plan = _plan(_rows_of_lengths(lengths, long_at), "1d-rowwise", 1)
    x = np.random.default_rng(30).standard_normal(plan.ncols)
    y = plan.apply_y(x, backend="native")
    empty = [r for r in range(4) if r != long_at]
    assert _same_bits(y[empty], np.zeros(3))
    _assert_fused_matches_numpy(plan, x, -x)


@pytest.mark.native
def test_fused_apply_rows_of_very_unequal_length_in_a_group():
    """Lockstep covers the shortest row of a group; each longer row
    finishes alone from where the shortest one stopped."""
    lengths = [1, 200, 3, 77, 0, 1000, 2, 5, 64, 63, 65, 1, 9, 400, 0]
    plan = _plan(_rows_of_lengths(lengths, 31), "1d-rowwise", 1)
    rng = np.random.default_rng(31)
    _assert_fused_matches_numpy(plan, *rng.standard_normal((4, plan.ncols)))


def _nan_with_payload(payload: int, negative: bool = False) -> float:
    bits = np.uint64(0x7FF8000000000000 | payload | (1 << 63 if negative else 0))
    return float(np.array([bits]).view(np.float64)[0])


#: Products of one row that no finite sum reproduces: NaNs whose
#: payloads tell which one the adds passed on, and infinities of one
#: and both signs.
SPECIAL_PRODUCTS = {
    "nan-payloads": [_nan_with_payload(5), _nan_with_payload(9, True)],
    "+inf": [np.inf],
    "-inf": [-np.inf],
    "inf-minus-inf": [np.inf, -np.inf],
}


@pytest.mark.native
@pytest.mark.parametrize("kind", sorted(SPECIAL_PRODUCTS) + ["negative-zero"])
@pytest.mark.parametrize("at", [0, 1, 2, 3])
def test_fused_apply_special_products_in_one_row_of_a_group(kind, at):
    """NaN, +-inf and -0.0 products confined to one of the four rows in
    lockstep (in the lockstep part, and in the row's own tail where it
    has one) reach that row only, with the bits NumPy gives, NaN
    payloads included."""
    lengths = [6, 9, 7, 8, 5]
    plan = _plan(_rows_of_lengths(lengths, 40 + at), "1d-rowwise", 1)
    cols = np.arange(sum(lengths[:at]), sum(lengths[: at + 1]))
    x = np.random.default_rng(41).standard_normal(plan.ncols)
    if kind == "negative-zero":
        x[cols] = np.where(plan.main_vals[cols] > 0, -0.0, 0.0)
    else:
        specials = SPECIAL_PRODUCTS[kind]
        x[cols[1 : 1 + len(specials)]] = specials
        x[cols[-1]] = specials[-1]
    y = plan.apply_y(x, backend="native")
    others = np.arange(plan.nrows) != at
    assert np.isfinite(y[others]).all()
    assert not np.isfinite(y[at]) or _same_bits(y[at : at + 1], np.zeros(1))
    _assert_fused_matches_numpy(plan, x, -x)


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


def _misaligned_int64(values) -> np.ndarray:
    """A read-only int64 view of ``values`` starting 4 bytes into a
    buffer: C-contiguous, but not aligned."""
    raw = np.asarray(values, dtype=np.int64).tobytes()
    view = np.frombuffer(b"\0" * 4 + raw, dtype=np.int64, offset=4)
    assert not view.flags.aligned and view.flags.c_contiguous
    return view


def test_addresses_refuse_a_misaligned_array():
    with pytest.raises(TypeError, match="keys must be a C-contiguous int64 .*misaligned"):
        ops.addresses("probe", ("keys", _misaligned_int64([1, 2, 3]), np.dtype(np.int64)))


@pytest.mark.native
def test_native_apply_refuses_a_misaligned_plan_array(partitioned_instances):  # noqa: F811
    plan = compile_plan(partitioned_instances[1][0])  # single-phase s2D
    assert plan.fold_rows.dtype == np.int64
    plan.fold_rows = _misaligned_int64(plan.fold_rows)
    with pytest.raises(TypeError, match="fold_rows must .*misaligned"):
        plan.apply_y(np.ones(plan.ncols), backend="native")


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
    """Reversing every row's adjacency makes the Hopcroft–Karp oracle find
    another maximum matching; the labels from either matching, and the
    kernel's from either adjacency, are the same."""
    coarse_labels, hopcroft_karp = dm_oracle.coarse_labels, dm_oracle.hopcroft_karp
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
    """``(chosen, rounds, loads)`` of the NumPy oracle's and the native
    flip loop."""
    out = []
    for run in (dm_oracle.s2d_flip, lambda **kw: ops.s2d_flip(get_kernels(), **kw)):
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
# Backend kwarg and the host without a compiler
# ----------------------------------------------------------------------


def test_explicit_numpy_never_touches_the_compiler(clean_native_state, monkeypatch):
    calls = []
    monkeypatch.setattr(native_build, "find_compiler", lambda: calls.append(1))
    assert resolve_backend("numpy") == "numpy"
    assert calls == []


def test_unknown_backend_rejected(clean_native_state):
    with pytest.raises(ConfigError, match="unknown backend"):
        resolve_backend("fortran")


@pytest.mark.native
@pytest.mark.parametrize("backend", ["auto", None])
def test_auto_and_none_backends_are_refused(backend, partitioned_instances):  # noqa: F811
    """The kwarg takes exactly ``"numpy"`` and ``"native"``: ``"auto"``
    and None are refused, naming both, by every entry that takes it."""
    p, _mode = partitioned_instances[1]  # square s2d instance
    plan = compile_plan(p)
    x, y = np.ones(plan.ncols), np.empty(plan.nrows)
    for call in (
        lambda: resolve_backend(backend),
        lambda: plan.apply_y(x, backend=backend),
        lambda: plan.apply(x, backend=backend),
        lambda: plan.bind(x, y, backend=backend),
        lambda: conjugate_gradient(p, np.ones(plan.nrows), plan=plan, backend=backend),
        lambda: power_iteration(p, iters=2, plan=plan, backend=backend),
    ):
        with pytest.raises(ConfigError) as exc:
            call()
        assert str(exc.value) == f"unknown backend {backend!r}; expected 'numpy' or 'native'"


@pytest.mark.native
def test_no_compiler_refuses_every_native_consumer(
    clean_native_state, monkeypatch, partitioned_instances  # noqa: F811
):
    """A host without a compiler cannot run the block DM, the flip loop,
    a default apply or a default solve: each raises the one ConfigError
    an explicit native request raises, with the recorded reason, and
    the status reports why."""
    from repro.core.s2d import s2d_heuristic
    from repro.dm.batch import batched_block_dm
    from repro.sparse.blocks import BlockStructure

    p, _mode = partitioned_instances[1]  # square s2d instance
    plan = compile_plan(p)
    a, v = p.matrix, p.vectors
    bs = BlockStructure(a.row, a.col, v.x_part, v.y_part, v.nparts)
    monkeypatch.setattr(native_build, "find_compiler", lambda: None)
    with pytest.raises(ConfigError) as native:
        resolve_backend("native")
    assert str(native.value).startswith("native backend unavailable: no C compiler")
    for call in (
        lambda: batched_block_dm(bs),
        lambda: s2d_heuristic(a, x_part=v.x_part, y_part=v.y_part, nparts=v.nparts),
        lambda: plan.apply_y(np.ones(plan.ncols)),
        lambda: conjugate_gradient(p, np.ones(plan.nrows), plan=plan),
    ):
        with pytest.raises(ConfigError) as exc:
            call()
        assert str(exc.value) == str(native.value)
    status = native_status()
    assert status["available"] is False and status["so_path"] is None
    assert "no C compiler" in status["reason"]
    assert "default_backend" not in status


def test_no_compiler_golden_path_still_works(
    clean_native_state, monkeypatch, partitioned_instances  # noqa: F811
):
    """The NumPy apply needs no compiler: on a compiler-less host an
    explicit ``backend="numpy"`` apply is bit-identical to the executor."""
    monkeypatch.setattr(native_build, "find_compiler", lambda: None)
    p, _mode = partitioned_instances[1]
    plan = compile_plan(p)
    x = np.random.default_rng(7).standard_normal(plan.ncols)
    assert np.array_equal(plan.apply_y(x, backend="numpy"), run_partition(p, x).y)


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


@pytest.mark.native
def test_cg_backend_bit_identical(partitioned_instances):  # noqa: F811
    """CG's dots stay on BLAS on both backends, so a native solve
    reproduces the NumPy one bit for bit, bill included."""
    for p, _mode in partitioned_instances[1:4]:  # single, routed, two-phase
        a = p.matrix
        values = np.where(a.row == a.col, 100.0, -1.0)  # SPD on the pattern
        q = SpMVPartition(
            matrix=sp.coo_matrix((values, (a.row, a.col)), shape=a.shape),
            nnz_part=p.nnz_part, vectors=p.vectors, kind=p.kind, meta=p.meta,
        )
        b = np.random.default_rng(16).standard_normal(a.shape[0])
        res_np = conjugate_gradient(q, b, backend="numpy")
        res_nat = conjugate_gradient(q, b, backend="native")
        assert res_np.converged and res_np.iterations > 1
        assert _same_bits(res_np.x, res_nat.x)
        assert res_np.history == res_nat.history
        assert res_np.iterations == res_nat.iterations
        assert (res_np.comm_words, res_np.comm_msgs) == (res_nat.comm_words, res_nat.comm_msgs)
        assert res_np.sim_time.hex() == res_nat.sim_time.hex()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def test_cli_native_info(capsys):
    assert main(["native-info"]) == 0
    out = capsys.readouterr().out
    assert "available=" in out
    assert "cache_dir=" in out
    assert "partitioning=" in out
    assert "default_backend" not in out


def test_cli_native_info_says_partitioning_needs_the_kernels(
    clean_native_state, monkeypatch, capsys
):
    monkeypatch.setattr(native_build, "find_compiler", lambda: None)
    assert main(["native-info"]) == 0
    out = capsys.readouterr().out
    assert "available=False" in out
    assert "partitioning=unavailable (needs the native kernels)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--id", "2", "--scale", "tiny"],
        ["partition", "--matrix", "trdheim", "--k", "4", "--scale", "tiny"],
        ["solve", "--matrix", "trdheim", "--k", "3", "--scale", "tiny"],
    ],
    ids=["table", "partition", "solve"],
)
def test_cli_partitioning_without_compiler_is_refused(
    clean_native_state, monkeypatch, capsys, argv
):
    """Every partition comes from the native kernels: on a host without
    a compiler a command that partitions prints the one ConfigError an
    explicit native backend gives and exits 2 before any work."""
    monkeypatch.setattr(native_build, "find_compiler", lambda: None)
    err = cli_usage_error(capsys, argv)
    assert "native backend unavailable: no C compiler" in err


@pytest.mark.native
def test_cli_solve_backend_native(capsys):
    """`solve` applies on the native kernels and says so."""
    rc = main(
        [
            "solve", "--matrix", "trdheim", "--scheme", "s2d",
            "--k", "3", "--scale", "tiny",
        ]
    )
    assert rc == 0
    assert "backend=native" in capsys.readouterr().out


def test_cli_solve_backend_native_unavailable(clean_native_state, monkeypatch, capsys):
    monkeypatch.setattr(native_build, "find_compiler", lambda: None)
    err = cli_usage_error(
        capsys,
        [
            "solve", "--matrix", "trdheim", "--scheme", "s2d",
            "--k", "3", "--scale", "tiny",
        ],
    )
    assert "native backend unavailable" in err


def test_cli_table_backend_flag(capsys):
    """`table` and `solve` have no ``--backend`` flag: argparse refuses
    any value before any work, with exit status 2 and one
    ``s2d-repro: error:`` line."""
    for cmd in ("table --id 2", "solve --matrix trdheim --k 3"):
        for value in ("numpy", "native", "auto"):
            with pytest.raises(SystemExit) as exc:
                main([*cmd.split(), "--scale", "tiny", "--backend", value])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and "Traceback" not in err
            assert err.count("s2d-repro: error:") == 1
            assert f"s2d-repro: error: unrecognized arguments: --backend {value}\n" in err
