"""Allocation-free solver iterations: ``CommPlan.bind`` and the
in-place solver loops against the out-of-place oracle
(:mod:`tests.solver_oracle`), bit for bit."""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.errors import ConfigError, SimulationError
from repro.native import get_kernels
from repro.partition.types import SpMVPartition
from repro.runtime import compile_plan
from repro.runtime.plan import _NativeApply
from repro.simulate import MachineModel
from repro.solvers import conjugate_gradient, jacobi, power_iteration

from tests import solver_oracle
from tests.golden_runtime import golden_instances
from tests.test_native import _CountingLib, _same_bits

MACHINE = MachineModel(alpha=7.3, beta=0.9, gamma=0.013)
BACKENDS = ["numpy", pytest.param("native", marks=pytest.mark.native)]
#: The single-phase, routed and two-phase golden partitions.
PLANS = ("s2d/single", "s2d-bounded/routed", "finegrain/two")


@pytest.fixture(scope="module")
def spd_instances():
    """``{label: partition}`` with SPD, diagonally dominant values on
    the golden patterns (CG and Jacobi both converge)."""
    out = {}
    for label, p, _mode in golden_instances():
        if label in PLANS:
            a = p.matrix
            values = np.where(a.row == a.col, 100.0, -1.0)
            out[label] = SpMVPartition(
                matrix=sp.coo_matrix((values, (a.row, a.col)), shape=a.shape),
                nnz_part=p.nnz_part, vectors=p.vectors, kind=p.kind, meta=p.meta,
            )
    return out


def _solves(p, backend):
    """``(name, new, oracle)`` call pairs: each solver run to
    convergence and for a fixed 12 iterations."""
    n = p.matrix.shape[0]
    b = np.random.default_rng(5).standard_normal(n)
    x0 = np.random.default_rng(6).standard_normal(n)
    out = []
    for tol, iters in ((None, 200), (0.0, 12)):
        kw = dict(iters=iters, machine=MACHINE, backend=backend)
        if tol is not None:
            kw["tol"] = tol
        out += [
            ("power", lambda kw=kw: power_iteration(p, x0=x0, **kw),
             lambda kw=kw: solver_oracle.power_iteration(p, x0=x0, **kw)),
            ("jacobi", lambda kw=kw: jacobi(p, b, **kw),
             lambda kw=kw: solver_oracle.jacobi(p, b, **kw)),
            ("cg", lambda kw=kw: conjugate_gradient(p, b, **kw),
             lambda kw=kw: solver_oracle.conjugate_gradient(p, b, **kw)),
        ]
    return out


def _assert_same_result(got, want, what):
    assert _same_bits(got.x, want.x), what
    assert got.history == want.history, what
    assert got.iterations == want.iterations, what
    assert got.converged == want.converged, what
    assert got.residual == want.residual, what
    assert (got.comm_words, got.comm_msgs) == (want.comm_words, want.comm_msgs), what
    assert got.sim_time.hex() == want.sim_time.hex(), what


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", PLANS)
def test_solvers_bit_identical_to_out_of_place_oracle(spd_instances, label, backend):
    p = spd_instances[label]
    for name, new, old in _solves(p, backend):
        _assert_same_result(new(), old(), f"{label} {name} {backend}")


def _shape(sp_):
    return (sp_.name, tuple(_shape(c) for c in sp_.children))


@pytest.mark.parametrize("backend", BACKENDS)
def test_traced_solve_keeps_span_tree_and_counters(spd_instances, backend):
    """A traced solve emits one ``solver.matvec`` and one ``plan.apply``
    span per iteration, the oracle's tree shape and counter totals, and
    the same numbers as an untraced solve."""
    p = spd_instances["s2d-bounded/routed"]
    for name, new, old in _solves(p, backend):
        with obs.tracing() as got_tr:
            got = new()
        with obs.tracing() as want_tr:
            want = old()
        _assert_same_result(got, want, name)
        _assert_same_result(new(), want, name)
        names = Counter(s.name for s in got_tr.walk())
        assert names["solver.matvec"] == names["plan.apply"] == got.iterations, name
        assert [_shape(s) for s in got_tr.spans] == [_shape(s) for s in want_tr.spans]
        assert got_tr.total_counters() == want_tr.total_counters(), name
        applies = [s for s in got_tr.walk() if s.name == "plan.apply"]
        assert {(s.attrs["mode"], s.attrs["backend"]) for s in applies} == {("routed", backend)}


# ----------------------------------------------------------------------
# CommPlan.bind
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_bind_writes_apply_y_into_the_bound_buffer(spd_instances, backend):
    for p in spd_instances.values():
        plan = compile_plan(p)
        x = np.empty(plan.ncols)
        y = np.full(plan.nrows, np.nan)
        step = plan.bind(x, y, backend=backend)
        for seed in (1, 2):  # the call reads x's current contents
            x[:] = np.random.default_rng(seed).standard_normal(plan.ncols)
            assert step() is None
            assert _same_bits(y, plan.apply_y(x, backend="numpy"))


@pytest.mark.native
def test_bound_native_step_is_one_kernel_call(spd_instances):
    plan = compile_plan(spd_instances["s2d/single"])
    lib = _CountingLib(get_kernels())
    plan.__dict__["_native_state"] = _NativeApply(plan, lib)
    step = plan.bind(np.ones(plan.ncols), np.empty(plan.nrows), backend="native")
    assert lib.calls == []
    step()
    step()
    assert lib.calls == ["repro_plan_apply"] * 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_bind_rejects_bad_buffers(spd_instances, backend):
    plan = compile_plan(spd_instances["finegrain/two"])
    n = plan.ncols
    x, y = np.ones(n), np.empty(n)
    with pytest.raises(TypeError, match="x must be a C-contiguous float64"):
        plan.bind(x.astype(np.float32), y, backend=backend)
    with pytest.raises(TypeError, match="y must be a C-contiguous float64"):
        plan.bind(x, np.empty(2 * n)[::2], backend=backend)
    with pytest.raises(TypeError, match="x must be"):
        plan.bind(list(x), y, backend=backend)
    with pytest.raises(SimulationError, match=r"x has shape \(\d+,\), expected"):
        plan.bind(x[:-1], y, backend=backend)
    with pytest.raises(SimulationError, match="y has shape"):
        plan.bind(x, np.empty((n, 1)), backend=backend)
    with pytest.raises(SimulationError, match="overlap"):
        plan.bind(x, x, backend=backend)
    frozen = np.empty(n)
    frozen.flags.writeable = False
    with pytest.raises(SimulationError, match="writable"):
        plan.bind(x, frozen, backend=backend)


# ----------------------------------------------------------------------
# Argument checks and edge cases
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_cg_with_zero_rhs_returns_zero_without_multiplying(spd_instances, backend):
    p = spd_instances["s2d/single"]
    n = p.matrix.shape[0]
    with obs.tracing() as tr:
        res = conjugate_gradient(p, np.zeros(n), machine=MACHINE, backend=backend)
    assert _same_bits(res.x, np.zeros(n))
    assert (res.converged, res.iterations, res.residual) == (True, 0, 0.0)
    assert (res.comm_words, res.comm_msgs, res.sim_time) == (0, 0, 0.0)
    assert res.history == []
    assert not any(s.name in ("solver.matvec", "plan.apply") for s in tr.walk())


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_power_iteration_refuses_a_degenerate_x0(spd_instances, bad):
    p = spd_instances["s2d/single"]
    x0 = np.zeros(p.matrix.shape[0])
    x0[3] = bad
    with pytest.raises(ConfigError, match="x0"):
        power_iteration(p, x0=x0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solver", [jacobi, conjugate_gradient], ids=["jacobi", "cg"])
def test_non_finite_b_is_refused_before_any_multiply(spd_instances, solver, bad):
    """Left alone, one ``nan`` in ``b`` runs every iteration up to the
    cap and returns ``residual=nan``."""
    p = spd_instances["s2d/single"]
    b = np.ones(p.matrix.shape[0])
    b[3] = bad
    with obs.tracing() as tr:
        with pytest.raises(ConfigError, match="b must be finite"):
            solver(p, b)
    assert not any(s.name in ("solver.matvec", "plan.apply") for s in tr.walk())


def test_cg_refuses_a_nan_curvature(spd_instances):
    """A finite ``b`` near the float range overflows ``r·r`` and ``d·Ad``
    to ``inf``, so the first step is ``inf / inf`` and the next
    curvature ``nan``: not positive, where ``dad <= 0`` let it through
    to the iteration cap."""
    p = spd_instances["s2d/single"]
    b = np.full(p.matrix.shape[0], 1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match="not positive definite"):
            conjugate_gradient(p, b, iters=50)


def test_misshaped_vectors_are_named_before_the_loop(spd_instances):
    p = spd_instances["s2d/single"]
    n = p.matrix.shape[0]
    with obs.tracing() as tr:
        with pytest.raises(ConfigError, match=rf"x0 has shape \(3,\), expected \({n},\)"):
            power_iteration(p, x0=np.ones(3))
        for solver in (jacobi, conjugate_gradient):
            with pytest.raises(ConfigError, match=rf"b has shape \({n + 1},\)"):
                solver(p, np.ones(n + 1))
            with pytest.raises(ConfigError, match="b has shape"):
                solver(p, np.ones((n, 1)))
    assert not any(s.name == "plan.apply" for s in tr.walk())
