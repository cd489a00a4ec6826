"""Iterative solvers running on partitioned, simulated SpMV.

The paper's motivation is iterative methods: SpMV repeats until
convergence, so the per-iteration communication profile compounds into
the solve's wall-clock.  This module provides the classic kernels on
top of the compiled SpMV runtime — the partition is compiled once into
a :class:`repro.runtime.CommPlan` (through the executor matching its
kind: single-phase, two-phase, or the routed executor for ``s2D-b``)
and bound once to the solve's own vectors
(:meth:`~repro.runtime.CommPlan.bind`), so each multiply is one call
into fixed buffers and each solve returns both the numerical answer
*and* the accumulated communication bill without re-deriving the
message structure per iteration.

An iteration allocates nothing: every vector update runs in place on
buffers the solver owns, with the same rounding as the textbook
out-of-place expression (``z + alpha*d`` is ``alpha*d`` into a
temporary, then added into ``z``), and dots and norms stay on BLAS.

Supported: power iteration (dominant eigenpair), Jacobi and conjugate
gradients for ``A z = b``.  Vector operations (axpy, dot) are assumed
perfectly parallel and are costed as ``γ·(2n/K)`` per global reduction
plus one ``α·log2 K`` allreduce term — the standard BSP accounting.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ConfigError, SimulationError
from repro.native import resolve_backend
from repro.partition.types import SpMVPartition
from repro.runtime import CommPlan, compile_plan
from repro.simulate.machine import MachineModel

__all__ = ["SolveResult", "power_iteration", "jacobi", "conjugate_gradient"]


@dataclass
class SolveResult:
    """Outcome of a distributed iterative solve."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual: float
    comm_words: int
    comm_msgs: int
    sim_time: float
    history: list[float] = field(default_factory=list)


class _SpMVEngine:
    """Binds y ← A·x through a compiled plan and accumulates its costs.

    The communication profile of a plan is static, so the per-iteration
    words/messages/time are computed once at set-up and each multiply
    is one bound call.  ``backend`` picks the numeric kernels of the
    apply (``"native"`` or ``"numpy"``; see :mod:`repro.native`),
    checked once at set-up.
    """

    def __init__(
        self,
        p: SpMVPartition,
        machine: MachineModel,
        plan: CommPlan | None = None,
        *,
        backend: str = "native",
    ):
        m, n = p.matrix.shape
        if m != n:
            raise SimulationError("iterative solvers need a square matrix")
        self.p = p
        self.machine = machine
        self.plan = compile_plan(p) if plan is None else plan
        # A plan compiled from a *different* matrix would silently solve
        # the wrong system (the compiled path skips the per-call serial
        # verification), so reject every cheap-to-spot mismatch.
        if (
            (self.plan.nrows, self.plan.ncols) != (m, n)
            or self.plan.nnz != p.matrix.nnz
            or self.plan.nparts != p.nparts
        ):
            raise SimulationError(
                f"plan compiled for shape ({self.plan.nrows}, {self.plan.ncols}), "
                f"nnz {self.plan.nnz}, K={self.plan.nparts} does not match the "
                f"partition's ({m}, {n}), nnz {p.matrix.nnz}, K={p.nparts}"
            )
        self.backend = resolve_backend(backend)
        self.words = 0
        self.msgs = 0
        self.time = 0.0
        self.n = n
        self._iter_words = self.plan.words
        self._iter_msgs = self.plan.msgs
        self._iter_time = self.plan.time(machine)
        k = p.nparts
        # reduction_cost's two increments, computed once: local work,
        # then the allreduce.
        self._reduce_local = machine.gamma * (2.0 * n / k)
        self._reduce_allreduce = machine.alpha * float(np.ceil(np.log2(max(k, 2))))

    def vector(self, v, name: str) -> np.ndarray:
        """``v`` as a float64 vector of the system's length
        (:class:`~repro.errors.ConfigError` naming ``name`` otherwise)."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise ConfigError(f"{name} has shape {v.shape}, expected ({self.n},)")
        return v

    def rhs(self, b) -> np.ndarray:
        """:meth:`vector` for a right-hand side ``b``, which must also be
        all finite: one ``nan`` or ``inf`` would iterate to the cap."""
        b = self.vector(b, "b")
        if not np.isfinite(b).all():
            raise ConfigError("b must be finite; it holds a nan or inf entry")
        return b

    def bind(self, x: np.ndarray, y: np.ndarray) -> Callable[[], None]:
        """One multiply ``y[:] = A @ x`` per call, billed.

        Whether a trace is open is decided here, once: untraced, a call
        is the plan's bound apply plus the bill; traced, it also opens
        the ``solver.matvec`` span and charges the solver counters.
        """
        apply = self.plan.bind(x, y, backend=self.backend)
        words, msgs, t = self._iter_words, self._iter_msgs, self._iter_time
        if obs.active_trace() is not None:
            bare = apply

            def apply() -> None:
                with obs.span("solver.matvec"):
                    bare()
                obs.add("solver.comm_words", words)
                obs.add("solver.comm_msgs", msgs)

        def step() -> None:
            apply()
            self.words += words
            self.msgs += msgs
            self.time += t

        return step

    def reduction_cost(self) -> None:
        """One global dot/norm: local work + an allreduce."""
        self.time += self._reduce_local
        self.time += self._reduce_allreduce


def power_iteration(
    p: SpMVPartition,
    iters: int = 50,
    tol: float = 1e-8,
    machine: MachineModel | None = None,
    x0: np.ndarray | None = None,
    plan: CommPlan | None = None,
    backend: str = "native",
) -> SolveResult:
    """Dominant eigenvalue estimate by repeated distributed SpMV.

    ``result.x`` holds the eigenvector estimate; ``result.residual`` is
    the last absolute eigenvalue change (after a single iteration, the
    distance from the zero initial estimate — always finite).  Pass a
    precompiled ``plan`` to skip compilation (e.g. the engine's
    memoized ``compiled_plan``).  ``backend`` selects the numeric
    kernels (see :mod:`repro.native`).  An ``x0`` of the wrong length,
    or with no finite nonzero norm, raises
    :class:`~repro.errors.ConfigError`.
    """
    if iters < 1:
        raise ConfigError(f"power_iteration needs iters >= 1, got {iters}")
    eng = _SpMVEngine(p, machine or MachineModel(), plan, backend=backend)
    n = eng.n
    x = np.ones(n) if x0 is None else eng.vector(x0, "x0").copy()
    norm0 = np.linalg.norm(x)
    if not (np.isfinite(norm0) and norm0 > 0):
        raise ConfigError(
            f"power_iteration needs an x0 with a finite nonzero norm, got {norm0}"
        )
    x /= norm0
    y = np.empty(n)
    matvec = eng.bind(x, y)
    lam_old = 0.0
    history: list[float] = []
    converged = False
    it = 0
    with obs.span("solver.power_iteration", k=p.nparts) as sp:
        for it in range(1, iters + 1):
            matvec()
            lam = float(x @ y)
            eng.reduction_cost()
            nrm = np.linalg.norm(y)
            eng.reduction_cost()
            if nrm == 0:
                raise SimulationError("power iteration hit the zero vector")
            np.divide(y, nrm, out=x)
            history.append(lam)
            if it > 1 and abs(lam - lam_old) <= tol * max(abs(lam), 1.0):
                converged = True
                break
            lam_old = lam
        if sp is not None:
            sp.attrs["iterations"] = it
    return SolveResult(
        x=x,
        iterations=it,
        converged=converged,
        residual=abs(history[-1] - history[-2])
        if len(history) > 1
        else abs(history[-1]),
        comm_words=eng.words,
        comm_msgs=eng.msgs,
        sim_time=eng.time,
        history=history,
    )


def jacobi(
    p: SpMVPartition,
    b: np.ndarray,
    iters: int = 200,
    tol: float = 1e-10,
    machine: MachineModel | None = None,
    plan: CommPlan | None = None,
    backend: str = "native",
) -> SolveResult:
    """Jacobi iteration ``z ← D⁻¹(b − (A−D) z)`` for diagonally dominant A.

    A ``b`` that is not all finite raises
    :class:`~repro.errors.ConfigError` before the first multiply.
    """
    if iters < 1:
        raise ConfigError(f"jacobi needs iters >= 1, got {iters}")
    eng = _SpMVEngine(p, machine or MachineModel(), plan, backend=backend)
    a = p.matrix
    d = np.asarray(a.diagonal(), dtype=np.float64)
    if np.any(d == 0):
        raise SimulationError("Jacobi needs a zero-free diagonal")
    b = eng.rhs(b)
    n = eng.n
    z, az, r, tmp = np.zeros(n), np.empty(n), np.empty(n), np.empty(n)
    matvec = eng.bind(z, az)
    bnorm = float(np.linalg.norm(b)) or 1.0
    history: list[float] = []
    converged = False
    it = 0
    with obs.span("solver.jacobi", k=p.nparts) as sp:
        for it in range(1, iters + 1):
            matvec()
            np.subtract(b, az, out=r)
            res = float(np.linalg.norm(r)) / bnorm
            eng.reduction_cost()
            history.append(res)
            if res <= tol:
                converged = True
                break
            np.divide(r, d, out=tmp)
            np.add(z, tmp, out=z)
        if sp is not None:
            sp.attrs["iterations"] = it
    return SolveResult(
        x=z,
        iterations=it,
        converged=converged,
        residual=history[-1],
        comm_words=eng.words,
        comm_msgs=eng.msgs,
        sim_time=eng.time,
        history=history,
    )


def conjugate_gradient(
    p: SpMVPartition,
    b: np.ndarray,
    iters: int = 200,
    tol: float = 1e-10,
    machine: MachineModel | None = None,
    plan: CommPlan | None = None,
    backend: str = "native",
) -> SolveResult:
    """CG for symmetric positive definite ``A`` (values must be SPD).

    An all-zero ``b`` has the exact solution ``x = 0``: it is returned
    converged after zero iterations, with no multiply and a zero bill.
    A ``b`` that is not all finite raises
    :class:`~repro.errors.ConfigError` before the first multiply, and a
    curvature ``d·Ad`` that is not positive (``nan`` included) raises
    :class:`~repro.errors.SimulationError`.
    """
    if iters < 1:
        raise ConfigError(f"conjugate_gradient needs iters >= 1, got {iters}")
    eng = _SpMVEngine(p, machine or MachineModel(), plan, backend=backend)
    b = eng.rhs(b)
    n = eng.n
    if not b.any():
        return SolveResult(
            x=np.zeros(n), iterations=0, converged=True, residual=0.0,
            comm_words=0, comm_msgs=0, sim_time=0.0,
        )
    z, r, ad, tmp = np.zeros(n), b.copy(), np.empty(n), np.empty(n)
    d = r.copy()
    matvec = eng.bind(d, ad)
    rs = float(r @ r)
    eng.reduction_cost()
    bnorm = float(np.linalg.norm(b)) or 1.0
    history: list[float] = []
    converged = False
    it = 0
    with obs.span("solver.conjugate_gradient", k=p.nparts) as sp:
        for it in range(1, iters + 1):
            matvec()
            dad = float(d @ ad)
            eng.reduction_cost()
            if not dad > 0:  # a nan curvature fails too
                raise SimulationError("matrix is not positive definite along d")
            alpha = rs / dad
            np.multiply(d, alpha, out=tmp)  # z = z + alpha * d
            np.add(z, tmp, out=z)
            np.multiply(ad, alpha, out=tmp)  # r = r - alpha * ad
            np.subtract(r, tmp, out=r)
            rs_new = float(r @ r)
            eng.reduction_cost()
            res = float(np.sqrt(rs_new)) / bnorm
            history.append(res)
            if res <= tol:
                converged = True
                break
            np.multiply(d, rs_new / rs, out=d)  # d = r + (rs_new / rs) * d
            np.add(r, d, out=d)
            rs = rs_new
        if sp is not None:
            sp.attrs["iterations"] = it
    return SolveResult(
        x=z,
        iterations=it,
        converged=converged,
        residual=history[-1],
        comm_words=eng.words,
        comm_msgs=eng.msgs,
        sim_time=eng.time,
        history=history,
    )
