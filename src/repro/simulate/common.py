"""Helpers shared by the three execution-model derivations.

The models differ in *which* items travel (fused packets, expand
words, two-hop routed copies) but agree on the bookkeeping around
them: the delivered ``(receiver, j)`` key table, the locality audit
against it, the fold-time ownership guard, the final ``A @ x`` audit,
and the :class:`Derivation` each one returns.  Keeping those here
means a change to the audit semantics or messages lands in every
model at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.kernels import in_sorted, unique_ints
from repro.simulate.machine import SpMVRun

if TYPE_CHECKING:
    from repro.runtime.plan import CommPlan

__all__ = [
    "Derivation", "Routing", "classify_nonzeros", "mesh_intermediate", "resolve_x",
    "delivery_keys", "check_locality", "check_fold_ownership", "freeze_plan",
    "verify_product",
]


def resolve_x(x: np.ndarray | None, ncols: int) -> np.ndarray:
    """The executors' input vector: the default ramp when ``x`` is
    None, otherwise ``x`` validated (shape ``(ncols,)``) and as float64."""
    if x is None:
        return np.arange(1, ncols + 1, dtype=np.float64) / ncols
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ncols,):
        raise SimulationError(
            f"x has shape {x.shape} (size {x.size}), expected ({ncols},)"
        )
    return x


def classify_nonzeros(p) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The single-phase nonzero classification of partition ``p``.

    Returns ``(rp, cp, owner, pre_mask, main_mask)``: the row/column
    vector owners and nonzero owners, the group-(ii) precompute mask
    (x local, y non-local) and the row-owner compute mask.  Raises
    unless the two masks partition every nonzero.  Shared by the
    single-phase and mesh-routed derivations so the classification
    cannot drift between them.
    """
    rp = p.vectors.y_part[p.matrix.row]
    cp = p.vectors.x_part[p.matrix.col]
    owner = p.nnz_part
    pre_mask = (owner == cp) & (rp != cp)
    main_mask = owner == rp
    if not np.all(pre_mask ^ main_mask):
        raise SimulationError("nonzero classification is not a partition")
    return rp, cp, owner, pre_mask, main_mask


def mesh_intermediate(src: np.ndarray, dst: np.ndarray, pc: int) -> np.ndarray:
    """Two-hop routing intermediate on a ``Pr × Pc`` mesh.

    The processor in ``src``'s mesh row and ``dst``'s mesh column —
    the combining stop of the s2D-b routed exchange.
    """
    return (src // pc) * pc + (dst % pc)


def delivery_keys(receivers: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Sorted distinct ``receiver·ncols + j`` delivery keys.

    The sender of ``x_j`` is its owner — a function of ``j`` — so this
    narrow key identifies each delivered x word; the sorted table
    doubles as the join side of :func:`check_locality`.
    """
    return unique_ints(receivers.astype(np.int64) * ncols + cols)


def check_locality(
    recv_keys: np.ndarray, proc: np.ndarray, col: np.ndarray, ncols: int
) -> None:
    """Raise unless every ``(proc[i], col[i])`` x read was delivered.

    ``recv_keys`` is a :func:`delivery_keys` table; ``proc``/``col``
    list the non-local reads of the compute phase.  One searchsorted
    join replaces the seed's per-nonzero dict probe.
    """
    need_keys = proc * np.int64(ncols) + col
    missing = np.flatnonzero(~in_sorted(recv_keys, need_keys))
    if missing.size:
        t = missing[0]
        raise SimulationError(
            f"P{proc[t]} multiplied with x[{col[t]}] it neither owns nor received"
        )


def check_fold_ownership(
    y_part: np.ndarray, rows: np.ndarray, dst: np.ndarray, what: str = "partial"
) -> None:
    """Raise unless each folded ``rows[i]`` is owned by its ``dst[i]``.

    A consistency guard (the delivery tables derive from the vector
    partition today, so it cannot fire) that becomes load-bearing the
    moment deliveries are built any other way, e.g. by a real message
    backend.
    """
    wrong = np.flatnonzero(y_part[rows] != dst)
    if wrong.size:
        t = wrong[0]
        raise SimulationError(
            f"{what} for y[{rows[t]}] delivered to non-owner P{dst[t]}"
        )


def freeze_plan(p, executor: str, **fields) -> "CommPlan":
    """``p``'s :class:`~repro.runtime.plan.CommPlan` under ``executor``
    over the derived ``fields`` (which may override ``kind``)."""
    # Imported per call: the runtime layer imports this package at load.
    from repro.runtime.plan import CommPlan

    m = p.matrix
    nrows, ncols = m.shape
    shape = dict(kind=p.kind, nparts=p.nparts, nrows=nrows, ncols=ncols, nnz=int(m.nnz))
    return CommPlan(executor=executor, **{**shape, **fields})


def verify_product(m, x: np.ndarray, y: np.ndarray, model: str) -> None:
    """The final audit of every model: ``y`` must equal serial ``A @ x``."""
    with obs.span("simulate.verify"):
        if not np.allclose(y, m @ x, rtol=1e-10, atol=1e-12):
            raise SimulationError(f"{model} SpMV result differs from serial A @ x")


@dataclass
class Routing:
    """The routing keys of one derived execution model, along which
    :func:`repro.runtime.shard_plan` splits its plan per part.

    ``pk`` keys each precompute product ``owner·nrows + row``
    (``pre_owner`` is that owner), ``pkeys`` are the distinct partial
    keys and ``recv_keys`` the delivered ``receiver·ncols + j`` keys.
    Single-phase models add ``main_owner``, the owner of each row-owner
    nonzero; the routed model adds the mesh intermediates ``x_t``/``y_t``
    of the x deliveries and partials, the hop-1 x copy keys
    ``x1 = t·ncols + j``, each partial's combine key
    ``ckey = t·nrows + i``, the distinct ``ckeys`` and each combined
    partial's destination ``c_dst``.
    """

    pre_owner: np.ndarray
    pk: np.ndarray
    pkeys: np.ndarray
    recv_keys: np.ndarray
    main_owner: np.ndarray | None = None
    x_t: np.ndarray | None = None
    y_t: np.ndarray | None = None
    x1: np.ndarray | None = None
    ckey: np.ndarray | None = None
    ckeys: np.ndarray | None = None
    c_dst: np.ndarray | None = None


@dataclass
class Derivation:
    """One execution model derived from a partition in a single pass:
    the compiled ``plan``, the ``routing`` keys it was built from, and
    the ``y`` of the derivation's ``x``, computed by the plan's NumPy
    apply and audited against serial ``A @ x``."""

    plan: "CommPlan"
    routing: Routing
    y: np.ndarray

    def run(self) -> SpMVRun:
        """The simulated run: ``y`` plus the plan's ledger and phases."""
        plan = self.plan
        return SpMVRun(self.y, plan.ledger, plan.phases, plan.nnz, plan.kind, plan.meta)
