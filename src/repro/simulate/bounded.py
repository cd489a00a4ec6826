"""Mesh-routed execution of s2D-b (Section VI-B).

Same numerics as the single-phase model, but the fused ``[x̂, ŷ]``
exchange travels in two hops over a ``Pr × Pc`` virtual mesh: a row
phase to the intermediate ``(r_src, c_dst)`` and a column phase to the
destination.  Intermediates *combine*: x entries bound for several
processors in one mesh column cross the row phase once, and partial
results for the same ``y_i`` arriving from different senders in a mesh
row are summed before being forwarded (those adds are charged as
flops of the in-between combine step).

:func:`derive_s2d_bounded` is this model's one derivation: hop word
counts come from :func:`~repro.kernels.pair_counts`, the
mesh-containment and locality checks are vectorized assertions, the
combined-partial fold verifies delivery ownership, and the combine is
the plan's second grouping stage.  :func:`repro.runtime.compile_plan`
and :func:`run_s2d_bounded` both run it.  The seed executor (its
outputs frozen in ``tests/fixtures/simulate_seed.npz``) skipped the
``x`` size check, the nonzero-classification check and the fold
ownership check.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ConfigError, SimulationError
from repro.kernels import GroupPlan, pair_counts, unique_ints
from repro.partition.checkerboard import mesh_shape
from repro.partition.types import SpMVPartition
from repro.simulate.common import (
    PHASES,
    Derivation,
    check_fold_ownership,
    check_locality,
    classify_nonzeros,
    delivery_keys,
    freeze_plan,
    mesh_intermediate,
    resolve_x,
    verify_product,
)
from repro.simulate.machine import PhaseCost, SpMVRun
from repro.simulate.messages import Ledger

__all__ = ["derive_s2d_bounded", "run_s2d_bounded"]

ROW, COL = PHASES["routed"]


def derive_s2d_bounded(p: SpMVPartition, x: np.ndarray | None = None) -> Derivation:
    """Derive the two-hop routed model of ``p`` and audit it on ``x``.

    The mesh is ``p.meta["mesh"]``, or :func:`mesh_shape` of ``K``.
    """
    p.validate_s2d()
    m = p.matrix
    nrows, ncols = m.shape
    k = p.nparts
    pr, pc = p.meta.get("mesh", mesh_shape(k))
    if pr * pc != k:
        raise ConfigError(f"mesh {pr}x{pc} does not cover {k} processors")
    x = resolve_x(x, ncols)

    rows, cols = m.row, m.col
    vals = np.asarray(m.data, dtype=np.float64)
    rp, cp, owner, pre_mask, main_mask = classify_nonzeros(p)

    ledger = Ledger(k)

    # ---------------- Precompute --------------------------------------
    with obs.span("simulate.precompute"):
        pre_owner = owner[pre_mask]
        flops_pre = 2 * np.bincount(pre_owner, minlength=k).astype(np.int64)
        # Partials keyed (producer, row): dense keys, histogram branch.
        pk = pre_owner.astype(np.int64) * nrows + rows[pre_mask]
        group1, pkeys = GroupPlan.build(pk)
        y_src = pkeys // nrows
        y_i = pkeys % nrows
        y_dst = p.vectors.y_part[y_i]

        # x needs of the compute phase: the sender of x_j is its owner,
        # a function of j, so delivery items deduplicate on the
        # narrower (receiver, j) key — also the sorted join table of
        # the compute-phase locality audit.
        need_mask = main_mask & (cp != rp)
        recv_keys = delivery_keys(rp[need_mask], cols[need_mask], ncols)
        x_dst = recv_keys // ncols
        x_j = recv_keys % ncols
        x_src = p.vectors.x_part[x_j]

    x_t = mesh_intermediate(x_src, x_dst, pc)
    y_t = mesh_intermediate(y_src, y_dst, pc)

    # ---------------- Row phase (hop 1, with combining) ----------------
    with obs.span("simulate.route-row"):
        # x: unique (src, t, j) — one copy toward each mesh column.
        # src is a function of j, so (t, j) identifies the copy; several
        # final destinations in one mesh column collapse to one key.
        x1 = unique_ints(x_t * np.int64(ncols) + x_j)
        x1_t = x1 // ncols
        x1_src = p.vectors.x_part[x1 % ncols]
        hop1_x = x1_src != x1_t  # drop src == t
        # y: unique (src, t, i); value is the producer's partial.
        hop1_y = y_t != y_src
        p1_src, p1_dst, p1_words = pair_counts(
            np.concatenate((x1_src[hop1_x], y_src[hop1_y])),
            np.concatenate((x1_t[hop1_x], y_t[hop1_y])),
            k,
        )
        # Sanity: the row phase stays within one mesh row.
        bad = np.flatnonzero(p1_src // pc != p1_dst // pc)
        if bad.size:
            t = bad[0]
            raise SimulationError(
                f"row-phase message {p1_src[t]}->{p1_dst[t]} leaves mesh row"
            )
        ledger.record_pairs(ROW, p1_src, p1_dst, p1_words)

    # State after hop 1: x values and partials present at intermediates.
    # (items whose hop-1 was a no-op are already "at" the source.)

    # ---------------- Combine at intermediates -------------------------
    with obs.span("simulate.combine"):
        # Partials for the same (t, i) merge in the plan's second
        # grouping stage; each merge beyond the first is one add at t.
        ckey = y_t * nrows + y_i
        group2, ckeys = GroupPlan.build(ckey)
        pos = np.searchsorted(ckeys, ckey)
        dup_counts = np.bincount(pos, minlength=ckeys.size)
        c_t = ckeys // nrows
        c_i = ckeys % nrows
        # Destination of each combined packet, carried from the
        # precompute items; the fold asserts it owns the row.  Like the
        # locality audits, that is a consistency guard: both sides
        # derive from the vector partition today, and the guard becomes
        # load-bearing if the routing tables are ever built differently.
        c_dst = np.empty(ckeys.size, dtype=np.int64)
        c_dst[pos] = y_dst
        flops_combine = np.bincount(
            c_t, weights=dup_counts - 1, minlength=k
        ).astype(np.int64)

    # ---------------- Column phase (hop 2) -----------------------------
    with obs.span("simulate.route-col"):
        # (dst, j) pairs are already unique, and t is a function of
        # (owner(j), dst) — no dedup needed for the second hop.
        hop2_x = x_t != x_dst
        hop2_y = c_t != c_dst
        p2_src, p2_dst, p2_words = pair_counts(
            np.concatenate((x_t[hop2_x], c_t[hop2_y])),
            np.concatenate((x_dst[hop2_x], c_dst[hop2_y])),
            k,
        )
        # Sanity: the column phase stays within one mesh column.
        bad = np.flatnonzero(p2_src % pc != p2_dst % pc)
        if bad.size:
            t = bad[0]
            raise SimulationError(
                f"column-phase message {p2_src[t]}->{p2_dst[t]} leaves mesh column"
            )
        ledger.record_pairs(COL, p2_src, p2_dst, p2_words)

    # ---------------- Compute ------------------------------------------
    with obs.span("simulate.compute"):
        main_owner = owner[main_mask]
        flops_main = 2 * np.bincount(main_owner, minlength=k).astype(np.int64)
        mcols = cols[main_mask]
        # Locality audit: routed (dst, j) deliveries must cover every
        # non-local x read.
        nonlocal_mask = cp[main_mask] != main_owner
        check_locality(recv_keys, main_owner[nonlocal_mask], mcols[nonlocal_mask], ncols)
        # The (combined) partials fold in only at rows the receiving
        # processor actually owns.
        check_fold_ownership(p.vectors.y_part, c_i, c_dst, what="combined partial")
        if c_i.size:
            flops_main += np.bincount(c_dst, minlength=k).astype(np.int64)
        plan = freeze_plan(
            p, "routed", kind=p.kind or "s2D-b", ledger=ledger,
            phases=[
                PhaseCost("precompute", flops=flops_pre),
                PhaseCost(ROW, comm_phase=ROW),
                PhaseCost("combine", flops=flops_combine),
                PhaseCost(COL, comm_phase=COL),
                PhaseCost("compute", flops=flops_main),
            ],
            pre_cols=cols[pre_mask],
            pre_vals=vals[pre_mask],
            group1=group1,
            fold_rows=c_i,
            group2=group2,
            main_rows=rows[main_mask],
            main_cols=mcols,
            main_vals=vals[main_mask],
            meta={"mesh": (pr, pc)},
        )
        y = plan._apply_y_numpy(x)

    verify_product(m, x, y, "s2D-b")
    return Derivation(plan, y)


def run_s2d_bounded(p: SpMVPartition, x: np.ndarray | None = None) -> SpMVRun:
    """Execute the two-hop routed single-phase SpMV under ``p``."""
    obs.add("simulate.runs")
    return derive_s2d_bounded(p, x).run()
