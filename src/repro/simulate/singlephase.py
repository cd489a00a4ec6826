"""The paper's modified parallel SpMV (Section III) — single comm phase.

Phases executed per processor ``P_k``:

1. **Precompute** — for every owned nonzero whose ``x_j`` is local but
   ``y_i`` is not (group ii), accumulate the partial ``ȳ_i``.
2. **Expand-and-Fold** — send to each ``P_ℓ`` one fused packet
   ``[x̂^{(k)}_ℓ, ŷ^{(ℓ)}_k]``: the x entries ``P_ℓ`` needs and the
   partials computed for ``P_ℓ``'s rows.
3. **Compute** — finish ``y^{(k)}`` from the diagonal block, the
   row-side off-diagonal nonzeros (with received x), and the received
   partials.

For a 1D rowwise partition the precompute phase is empty and the fused
packet degenerates to the classic expand — the generalization property
the paper notes.

:func:`derive_single_phase` is this model's one derivation, run by both
:func:`run_single_phase` and :func:`repro.runtime.compile_plan`: packet
word counts come from :func:`~repro.kernels.pair_counts`, the locality
audit is a searchsorted join against the delivered ``(receiver, j)``
keys, and ``y`` is the compiled plan's NumPy apply, verified against
the serial product.  Ledgers are bit-identical to the seed executor's,
frozen in ``tests/fixtures/simulate_seed.npz``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.kernels import GroupPlan, pair_counts
from repro.partition.types import SpMVPartition
from repro.simulate.common import (
    PHASES,
    Derivation,
    check_fold_ownership,
    check_locality,
    classify_nonzeros,
    delivery_keys,
    freeze_plan,
    resolve_x,
    verify_product,
)
from repro.simulate.machine import PhaseCost, SpMVRun
from repro.simulate.messages import Ledger

__all__ = ["derive_single_phase", "run_single_phase"]

(PHASE,) = PHASES["single"]


def derive_single_phase(p: SpMVPartition, x: np.ndarray | None = None) -> Derivation:
    """Derive the single-phase model of ``p`` and audit it on ``x``.

    ``p`` must be s2D-admissible (1D rowwise/columnwise partitions are,
    trivially).
    """
    p.validate_s2d()
    m = p.matrix
    nrows, ncols = m.shape
    k = p.nparts
    x = resolve_x(x, ncols)

    rows, cols = m.row, m.col
    vals = np.asarray(m.data, dtype=np.float64)
    # Group (ii) precompute mask (x local, y non-local) vs the row-owner
    # compute mask; everything else is a classification error.
    rp, cp, owner, pre_mask, main_mask = classify_nonzeros(p)

    ledger = Ledger(k)

    # ---------------- Phase 1: Precompute -----------------------------
    with obs.span("simulate.precompute"):
        pre_owner = owner[pre_mask]
        flops_pre = 2 * np.bincount(pre_owner, minlength=k).astype(np.int64)
        # Locality: the x value used here must be owned by the computing proc.
        if not np.all(cp[pre_mask] == pre_owner):
            raise SimulationError("precompute touched a non-local x entry")
        # Partials ȳ_i accumulate at their producer under the key
        # (producer, row): a dense key range, so the group plan takes
        # the histogram branch.
        pk = pre_owner.astype(np.int64) * nrows + rows[pre_mask]
        group1, pkeys = GroupPlan.build(pk)
        part_src = pkeys // nrows
        part_row = pkeys % nrows
        part_dst = p.vectors.y_part[part_row]
        if np.any(part_src == part_dst):
            raise SimulationError("a precomputed partial is already local")

    # ---------------- Phase 2: Expand-and-Fold ------------------------
    with obs.span("simulate.exchange"):
        # x needs: row-side off-diagonal nonzeros read x they do not own.
        # The sender of x_j is its owner — a function of j — so the
        # delivery items deduplicate on the narrower (receiver, j) key,
        # which doubles as the sorted join table of the locality audit.
        need_mask = main_mask & (cp != rp)
        recv_keys = delivery_keys(rp[need_mask], cols[need_mask], ncols)
        x_dst = recv_keys // ncols
        x_j = recv_keys % ncols
        x_src = p.vectors.x_part[x_j]

        # One fused packet per communicating pair: one word per x entry
        # and per partial.
        ledger.record_pairs(
            PHASE,
            *pair_counts(
                np.concatenate((x_src, part_src)),
                np.concatenate((x_dst, part_dst)),
                k,
            ),
        )

    # ---------------- Phase 3: Compute --------------------------------
    with obs.span("simulate.compute"):
        main_owner = owner[main_mask]
        flops_main = 2 * np.bincount(main_owner, minlength=k).astype(np.int64)
        mcols = cols[main_mask]
        # Locality audit: every non-local x read must match a delivered
        # (receiver, j) key from the exchange.
        nonlocal_mask = cp[main_mask] != main_owner
        check_locality(recv_keys, main_owner[nonlocal_mask], mcols[nonlocal_mask], ncols)
        # Received partials fold in (one add per received word), only at
        # the row owner each was delivered to.
        check_fold_ownership(p.vectors.y_part, part_row, part_dst)
        if part_row.size:
            flops_main += np.bincount(part_dst, minlength=k).astype(np.int64)
        plan = freeze_plan(
            p, "single", ledger=ledger,
            phases=[
                PhaseCost("precompute", flops=flops_pre),
                PhaseCost(PHASE, comm_phase=PHASE),
                PhaseCost("compute", flops=flops_main),
            ],
            pre_cols=cols[pre_mask],
            pre_vals=vals[pre_mask],
            group1=group1,
            fold_rows=part_row,
            main_rows=rows[main_mask],
            main_cols=mcols,
            main_vals=vals[main_mask],
        )
        y = plan._apply_y_numpy(x)

    verify_product(m, x, y, "single-phase")
    return Derivation(plan, y)


def run_single_phase(p: SpMVPartition, x: np.ndarray | None = None) -> SpMVRun:
    """Execute the single-phase SpMV under partition ``p``.

    ``p`` must be s2D-admissible (1D rowwise/columnwise partitions are,
    trivially).  Returns the simulated run; ``run.y`` equals ``A @ x``.
    """
    obs.add("simulate.runs")
    return derive_single_phase(p, x).run()
