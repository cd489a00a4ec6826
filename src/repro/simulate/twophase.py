"""Standard two-phase (expand / compute / fold) parallel SpMV.

Runs *any* nonzero partition — the fine-grain 2D baseline, the 2D-b
checkerboard and the 1D-b Boman scheme all execute here.  For the
Cartesian schemes the bounded message pattern (expand inside mesh
columns, fold inside mesh rows) emerges from their vector placement;
no special-case code is involved, which is itself a useful check.

:func:`derive_two_phase` is this model's one derivation (see
:mod:`repro.simulate.singlephase`); the seed executor is preserved in
:mod:`repro.simulate.legacy` with bit-identical ledgers.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.kernels import GroupPlan, pair_counts
from repro.partition.types import SpMVPartition
from repro.simulate.common import (
    Derivation,
    Routing,
    check_locality,
    delivery_keys,
    freeze_plan,
    resolve_x,
    verify_product,
)
from repro.simulate.machine import PhaseCost, SpMVRun
from repro.simulate.messages import Ledger

__all__ = ["derive_two_phase", "run_two_phase"]


def derive_two_phase(p: SpMVPartition, x: np.ndarray | None = None) -> Derivation:
    """Derive the expand/compute/fold model of ``p`` and audit it on ``x``."""
    m = p.matrix
    nrows, ncols = m.shape
    k = p.nparts
    x = resolve_x(x, ncols)

    rows, cols = m.row, m.col
    vals = np.asarray(m.data, dtype=np.float64)
    owner = p.nnz_part
    x_owner_of_nnz = p.vectors.x_part[cols]

    ledger = Ledger(k)

    # ---------------- Phase 1: Expand ---------------------------------
    with obs.span("simulate.expand"):
        # The sender of x_j is its owner — a function of j — so expand
        # items deduplicate on the narrower (receiver, j) key, which is
        # also the sorted join table of the compute-phase audit.
        need = x_owner_of_nnz != owner
        recv_keys = delivery_keys(owner[need], cols[need], ncols)
        e_dst = recv_keys // ncols
        e_j = recv_keys % ncols
        e_src = p.vectors.x_part[e_j]
        ledger.record_pairs("expand", *pair_counts(e_src, e_dst, k))

    # ---------------- Phase 2: Compute --------------------------------
    with obs.span("simulate.compute"):
        flops = 2 * np.bincount(owner, minlength=k).astype(np.int64)
        # Locality audit: every expanded x read must match a delivered
        # (receiver, j) key.
        check_locality(recv_keys, owner[need], cols[need], ncols)
        # Partial results per (holder, row) — dense keys, histogram branch.
        pk = owner.astype(np.int64) * nrows + rows
        group1, pkeys = GroupPlan.build(pk)
        p_holder = pkeys // nrows
        p_row = pkeys % nrows
        p_dst = p.vectors.y_part[p_row]

    # ---------------- Phase 3: Fold -----------------------------------
    with obs.span("simulate.fold"):
        away = p_holder != p_dst
        ledger.record_pairs("fold", *pair_counts(p_holder[away], p_dst[away], k))
        flops_agg = np.bincount(p_dst[away], minlength=k).astype(np.int64)
        plan = freeze_plan(
            p, "two", ledger=ledger,
            phases=[
                PhaseCost("expand", comm_phase="expand"),
                PhaseCost("compute", flops=flops),
                PhaseCost("fold", comm_phase="fold"),
                PhaseCost("aggregate", flops=flops_agg),
            ],
            pre_cols=cols,
            pre_vals=vals,
            group1=group1,
            fold_rows=p_row,
        )
        y = plan._apply_y_numpy(x)

    verify_product(m, x, y, "two-phase")
    return Derivation(plan, Routing(owner, pk, pkeys, recv_keys), y)


def run_two_phase(p: SpMVPartition, x: np.ndarray | None = None) -> SpMVRun:
    """Execute the expand/compute/fold SpMV under partition ``p``."""
    obs.add("simulate.runs")
    return derive_two_phase(p, x).run()
