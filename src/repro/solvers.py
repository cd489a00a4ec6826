"""Iterative solvers running on partitioned, simulated SpMV.

The paper's motivation is iterative methods: SpMV repeats until
convergence, so the per-iteration communication profile compounds into
the solve's wall-clock.  This module provides the classic kernels on
top of the compiled SpMV runtime — the partition is compiled once into
a :class:`repro.runtime.CommPlan` (through the executor matching its
kind: single-phase, two-phase, or the routed executor for ``s2D-b``)
and every multiply is a pure :meth:`~repro.runtime.CommPlan.apply_y`,
so each solve returns both the numerical answer *and* the accumulated
communication bill without re-deriving the message structure per
iteration.

Supported: power iteration (dominant eigenpair), Jacobi and conjugate
gradients for ``A z = b``.  Vector operations (axpy, dot) are assumed
perfectly parallel and are costed as ``γ·(2n/K)`` per global reduction
plus one ``α·log2 K`` allreduce term — the standard BSP accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ConfigError, SimulationError
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
    """Runs y ← A·x through a compiled plan, accumulating costs.

    The communication profile of a plan is static, so the per-iteration
    words/messages/time are computed once at set-up and each multiply
    is a pure compiled apply.  ``backend`` picks the numeric kernels
    (``"auto"``/``"numpy"``/``"native"``; see :mod:`repro.native`),
    resolved once at set-up so the per-iteration apply carries no
    dispatch cost.
    """

    def __init__(
        self,
        p: SpMVPartition,
        machine: MachineModel,
        plan: CommPlan | None = None,
        *,
        backend: str | None = None,
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
        from repro.native import resolve_backend

        plan_, backend_ = self.plan, resolve_backend(backend)
        self._apply = lambda x: plan_.apply_y(x, backend=backend_)
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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        with obs.span("solver.matvec"):
            y = self._apply(x)
        self.words += self._iter_words
        self.msgs += self._iter_msgs
        self.time += self._iter_time
        obs.add("solver.comm_words", self._iter_words)
        obs.add("solver.comm_msgs", self._iter_msgs)
        return y

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
    backend: str | None = None,
) -> SolveResult:
    """Dominant eigenvalue estimate by repeated distributed SpMV.

    ``result.x`` holds the eigenvector estimate; ``result.residual`` is
    the last absolute eigenvalue change (after a single iteration, the
    distance from the zero initial estimate — always finite).  Pass a
    precompiled ``plan`` to skip compilation (e.g. the engine's
    memoized ``compiled_plan``).  ``backend`` selects the numeric
    kernels (see :mod:`repro.native`).
    """
    if iters < 1:
        raise ConfigError(f"power_iteration needs iters >= 1, got {iters}")
    eng = _SpMVEngine(p, machine or MachineModel(), plan, backend=backend)
    n = eng.n
    x = (np.ones(n) if x0 is None else np.asarray(x0, dtype=np.float64)).copy()
    x /= np.linalg.norm(x)
    lam_old = 0.0
    history: list[float] = []
    converged = False
    it = 0
    with obs.span("solver.power_iteration", k=p.nparts) as sp:
        for it in range(1, iters + 1):
            y = eng.matvec(x)
            lam = float(x @ y)
            eng.reduction_cost()
            nrm = np.linalg.norm(y)
            eng.reduction_cost()
            if nrm == 0:
                raise SimulationError("power iteration hit the zero vector")
            x = y / nrm
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
    backend: str | None = None,
) -> SolveResult:
    """Jacobi iteration ``z ← D⁻¹(b − (A−D) z)`` for diagonally dominant A."""
    if iters < 1:
        raise ConfigError(f"jacobi needs iters >= 1, got {iters}")
    eng = _SpMVEngine(p, machine or MachineModel(), plan, backend=backend)
    a = p.matrix
    d = np.asarray(a.diagonal(), dtype=np.float64)
    if np.any(d == 0):
        raise SimulationError("Jacobi needs a zero-free diagonal")
    b = np.asarray(b, dtype=np.float64)
    z = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b)) or 1.0
    history: list[float] = []
    converged = False
    it = 0
    with obs.span("solver.jacobi", k=p.nparts) as sp:
        for it in range(1, iters + 1):
            az = eng.matvec(z)
            r = b - az
            res = float(np.linalg.norm(r)) / bnorm
            eng.reduction_cost()
            history.append(res)
            if res <= tol:
                converged = True
                break
            z = z + r / d
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
    backend: str | None = None,
) -> SolveResult:
    """CG for symmetric positive definite ``A`` (values must be SPD)."""
    if iters < 1:
        raise ConfigError(f"conjugate_gradient needs iters >= 1, got {iters}")
    eng = _SpMVEngine(p, machine or MachineModel(), plan, backend=backend)
    b = np.asarray(b, dtype=np.float64)
    z = np.zeros_like(b)
    r = b.copy()
    d = r.copy()
    rs = float(r @ r)
    eng.reduction_cost()
    bnorm = float(np.linalg.norm(b)) or 1.0
    history: list[float] = []
    converged = False
    it = 0
    with obs.span("solver.conjugate_gradient", k=p.nparts) as sp:
        for it in range(1, iters + 1):
            ad = eng.matvec(d)
            dad = float(d @ ad)
            eng.reduction_cost()
            if dad <= 0:
                raise SimulationError("matrix is not positive definite along d")
            alpha = rs / dad
            z = z + alpha * d
            r = r - alpha * ad
            rs_new = float(r @ r)
            eng.reduction_cost()
            res = float(np.sqrt(rs_new)) / bnorm
            history.append(res)
            if res <= tol:
                converged = True
                break
            d = r + (rs_new / rs) * d
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
