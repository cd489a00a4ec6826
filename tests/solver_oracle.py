"""The out-of-place solver loops, kept as a bit-identity oracle.

These are the textbook formulations :mod:`repro.solvers` ran before
its iterations became allocation-free: every multiply is one
``plan.apply_y`` returning a fresh vector, and every update allocates
(``z = z + alpha * d``).  The in-place solvers must reproduce them bit
for bit — ``x``, ``history``, ``iterations``, the communication bill,
``sim_time`` and, in a traced run, the span tree and counters.  Test
code only; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.native import resolve_backend
from repro.runtime import compile_plan
from repro.simulate.machine import MachineModel
from repro.solvers import SolveResult


class _Engine:
    """One ``apply_y`` per multiply, billed as it happens."""

    def __init__(self, p, machine, plan=None, backend=None):
        n = p.matrix.shape[0]
        self.plan = compile_plan(p) if plan is None else plan
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
        self._reduce_local = machine.gamma * (2.0 * n / k)
        self._reduce_allreduce = machine.alpha * float(np.ceil(np.log2(max(k, 2))))

    def matvec(self, x):
        with obs.span("solver.matvec"):
            y = self._apply(x)
        self.words += self._iter_words
        self.msgs += self._iter_msgs
        self.time += self._iter_time
        obs.add("solver.comm_words", self._iter_words)
        obs.add("solver.comm_msgs", self._iter_msgs)
        return y

    def reduction_cost(self):
        self.time += self._reduce_local
        self.time += self._reduce_allreduce


def _result(eng, x, it, converged, residual, history):
    return SolveResult(
        x=x, iterations=it, converged=converged, residual=residual,
        comm_words=eng.words, comm_msgs=eng.msgs, sim_time=eng.time,
        history=history,
    )


def power_iteration(p, iters=50, tol=1e-8, machine=None, x0=None, plan=None, backend=None):
    eng = _Engine(p, machine or MachineModel(), plan, backend)
    x = (np.ones(eng.n) if x0 is None else np.asarray(x0, dtype=np.float64)).copy()
    x /= np.linalg.norm(x)
    lam_old = 0.0
    history = []
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
    residual = abs(history[-1] - history[-2]) if len(history) > 1 else abs(history[-1])
    return _result(eng, x, it, converged, residual, history)


def jacobi(p, b, iters=200, tol=1e-10, machine=None, plan=None, backend=None):
    eng = _Engine(p, machine or MachineModel(), plan, backend)
    d = np.asarray(p.matrix.diagonal(), dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    z = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b)) or 1.0
    history = []
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
    return _result(eng, z, it, converged, history[-1], history)


def conjugate_gradient(p, b, iters=200, tol=1e-10, machine=None, plan=None, backend=None):
    eng = _Engine(p, machine or MachineModel(), plan, backend)
    b = np.asarray(b, dtype=np.float64)
    z = np.zeros_like(b)
    r = b.copy()
    d = r.copy()
    rs = float(r @ r)
    eng.reduction_cost()
    bnorm = float(np.linalg.norm(b)) or 1.0
    history = []
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
    return _result(eng, z, it, converged, history[-1], history)
