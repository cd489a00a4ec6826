"""Compile a partition's SpMV into a :class:`~repro.runtime.plan.CommPlan`.

Compilation runs the matching per-call executor once — inheriting all
of its structural validation (s2D admissibility, nonzero
classification, locality and fold-ownership audits) and the serial
``A @ x`` verification — and keeps its ledger and superstep schedule
as the plan's static per-iteration record.  The numeric-kernel index
arrays are then derived with the executors' own expressions, and the
compiled apply is checked bit-for-bit against the reference run before
the plan is returned, so a plan that disagrees with its executor can
never leave this module.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.kernels import pair_counts, unique_ints
from repro.partition.types import SpMVPartition
from repro.runtime.plan import CommPlan, PartPlan, _Gather, _GroupPlan, _RecvX, _SendSpec
from repro.runtime.shards import PHASES, apply_shards_serial
from repro.simulate.bounded import run_s2d_bounded
from repro.simulate.common import classify_nonzeros, delivery_keys, mesh_intermediate
from repro.simulate.machine import SpMVRun
from repro.simulate.report import EXECUTORS
from repro.simulate.singlephase import run_single_phase
from repro.simulate.twophase import run_two_phase

__all__ = ["compile_plan", "shard_plan"]

_RUNNERS = {
    "single": run_single_phase,
    "two": run_two_phase,
    "routed": run_s2d_bounded,
}


def _derive(mode: str, p: SpMVPartition, ref: SpMVRun) -> dict:
    """The mode-specific gather/scatter arrays, mirroring the executor."""
    m = p.matrix
    nrows = m.shape[0]
    rows, cols = m.row, m.col
    vals = np.asarray(m.data, dtype=np.float64)
    owner = p.nnz_part

    if mode == "two":
        pk = owner.astype(np.int64) * nrows + rows
        group1, pkeys = _GroupPlan.build(pk)
        return {
            "pre_cols": cols,
            "pre_vals": vals,
            "group1": group1,
            "fold_rows": pkeys % nrows,
        }

    _, _, _, pre_mask, main_mask = classify_nonzeros(p)
    pk = owner[pre_mask].astype(np.int64) * nrows + rows[pre_mask]
    group1, pkeys = _GroupPlan.build(pk)
    out = {
        "pre_cols": cols[pre_mask],
        "pre_vals": vals[pre_mask],
        "group1": group1,
        "main_rows": rows[main_mask],
        "main_cols": cols[main_mask],
        "main_vals": vals[main_mask],
    }
    if mode == "single":
        out["fold_rows"] = pkeys % nrows
        return out

    # Routed: partials combine at mesh intermediates before the fold.
    pr, pc = ref.meta["mesh"]
    y_src = pkeys // nrows
    y_i = pkeys % nrows
    y_dst = p.vectors.y_part[y_i]
    y_t = mesh_intermediate(y_src, y_dst, pc)
    ckey = y_t * nrows + y_i
    group2, ckeys = _GroupPlan.build(ckey)
    out["group2"] = group2
    out["fold_rows"] = ckeys % nrows
    return out


def compile_plan(p: SpMVPartition, executor: str | None = None) -> CommPlan:
    """Compile partition ``p`` into a reusable :class:`CommPlan`.

    ``executor`` picks the execution model (``"single"``, ``"two"`` or
    ``"routed"``); omitted, it resolves from ``p.kind`` exactly like
    :func:`repro.simulate.report.run_partition`.  Compilation costs
    about one per-call executor run and is amortized after a few
    applies (see ``benchmarks/bench_runtime.py``).
    """
    mode = executor
    if mode is None:
        mode = EXECUTORS.get(p.kind)
    if mode is None:
        mode = "single" if p.is_s2d_admissible() else "two"
    runner = _RUNNERS.get(mode)
    if runner is None:
        raise ConfigError(
            f"unknown executor {mode!r}; expected one of {sorted(_RUNNERS)}"
        )
    ref = runner(p)
    m, n = p.matrix.shape
    plan = CommPlan(
        executor=mode,
        kind=ref.kind,
        nparts=p.nparts,
        nrows=m,
        ncols=n,
        nnz=ref.nnz,
        ledger=ref.ledger,
        phases=ref.phases,
        meta=dict(ref.meta),
        **_derive(mode, p, ref),
    )
    if not np.array_equal(plan.apply_y(), ref.y):
        raise SimulationError(
            "compiled plan disagrees with the per-call executor"
        )  # pragma: no cover — compile-time self-check
    return plan


# ----------------------------------------------------------------------
# Plan sharding: split a CommPlan into per-part PartPlans
# ----------------------------------------------------------------------
#
# Bit-identity with the single-core apply rests on three invariants:
#
# 1. grouped partial sums shard cleanly by producing part — group keys
#    are part-major (``owner*nrows + row``), so each part's key block is
#    a contiguous slice of the global sums, and restricting a bincount /
#    ``np.add.at`` accumulation to a subsequence that contains *all*
#    elements of its keys reproduces those sums bit for bit;
# 2. every output row is owned by exactly one part, so the row-owner
#    products shard by part the same way;
# 3. cross-part combines (mesh intermediates, the fold) accumulate per
#    row in ascending producing-part order — exactly the element order
#    of the global key-sorted bincount — which the receiver reproduces
#    by assembling source chunks in part order (see ``_Gather``).


class _Items:
    """The word stream of one communication phase: category 0 carries x
    entries (payload: column index), category 1 carries partial sums
    (payload: global partial index).  Slot assignment packs the stream
    pair-contiguously in ledger pair order, x block before partial block
    within a pair, key-ascending within a block."""

    def __init__(self):
        self._chunks: list[tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]] = []

    def add(self, src, dst, cat: int, key, payload) -> None:
        self._chunks.append((src, dst, cat, key, payload))

    def finalize(self, k: int, phase: str, plan: CommPlan) -> None:
        empty = np.empty(0, dtype=np.int64)
        if self._chunks:
            self.src = np.concatenate([np.asarray(c[0], dtype=np.int64) for c in self._chunks])
            self.dst = np.concatenate([np.asarray(c[1], dtype=np.int64) for c in self._chunks])
            self.cat = np.concatenate(
                [np.full(len(c[0]), c[2], dtype=np.int64) for c in self._chunks]
            )
            self.key = np.concatenate([np.asarray(c[3], dtype=np.int64) for c in self._chunks])
            self.payload = np.concatenate(
                [np.asarray(c[4], dtype=np.int64) for c in self._chunks]
            )
        else:
            self.src = self.dst = self.cat = self.key = self.payload = empty
        order = np.lexsort((self.key, self.cat, self.dst, self.src))
        self.slots = np.empty(order.size, dtype=np.int64)
        self.slots[order] = np.arange(order.size)
        # The stream must reproduce the plan's ledger exactly — per
        # pair, per phase.  This is the shard-time half of the
        # measured-vs-predicted reconciliation.
        lsrc, ldst, lwords = plan.ledger.phase_pairs(phase)
        if self.src.size:
            msrc, mdst, mwords = pair_counts(self.src, self.dst, k)
        else:
            msrc, mdst, mwords = empty, empty, empty
        if not (
            np.array_equal(msrc, lsrc)
            and np.array_equal(mdst, ldst)
            and np.array_equal(mwords, lwords)
        ):
            raise SimulationError(
                f"sharded word stream of phase {phase!r} disagrees with the "
                "plan ledger"
            )  # pragma: no cover — shard-time self-check

    def send_spec(self, q: int, partial_start: np.ndarray) -> _SendSpec:
        """Part ``q``'s writes; partial indices are localized against
        ``partial_start`` (the per-part offsets of the partial array)."""
        xs = (self.cat == 0) & (self.src == q)
        ps = (self.cat == 1) & (self.src == q)
        return _SendSpec(
            x_slots=self.slots[xs],
            x_cols=self.payload[xs],
            p_slots=self.slots[ps],
            p_idx=self.payload[ps] - partial_start[q],
        )

    def recv_x(self, q: int) -> _RecvX:
        xr = (self.cat == 0) & (self.dst == q)
        return _RecvX(slots=self.slots[xr], cols=self.payload[xr])

    def slot_of_partial(self, n_partials: int) -> np.ndarray:
        """Map global partial index → buffer slot (−1 if it stays local)."""
        out = np.full(n_partials, -1, dtype=np.int64)
        ps = self.cat == 1
        out[self.payload[ps]] = self.slots[ps]
        return out


def _gather_spec(
    elem_idx: np.ndarray,
    producer: np.ndarray,
    q: int,
    start: np.ndarray,
    slot_of: np.ndarray,
) -> _Gather:
    """Combine/fold input for part ``q``: global element indices (in
    global key order) split into locally-held vs buffer-delivered."""
    loc = producer[elem_idx] == q
    loc_pos = np.flatnonzero(loc)
    buf_pos = np.flatnonzero(~loc)
    buf_slots = slot_of[elem_idx[buf_pos]]
    if buf_slots.size and buf_slots.min() < 0:
        raise SimulationError(
            "a remote partial was never assigned a buffer slot"
        )  # pragma: no cover — shard-time self-check
    return _Gather(
        size=int(elem_idx.size),
        buf_pos=buf_pos,
        buf_slots=buf_slots,
        loc_pos=loc_pos,
        loc_idx=elem_idx[loc_pos] - start[q],
    )


def _compact(own_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return np.searchsorted(own_rows, rows)


def _part_starts(owner_sorted: np.ndarray, k: int) -> np.ndarray:
    return np.searchsorted(owner_sorted, np.arange(k, dtype=np.int64))


def shard_plan(p: SpMVPartition, plan: CommPlan) -> list[PartPlan]:
    """Split ``plan`` into one :class:`~repro.runtime.plan.PartPlan` per
    part, re-deriving the routing tables from partition ``p`` with the
    executors' own expressions.

    The shards carry everything iteration-invariant: per-part
    gather/scatter index slices, frozen per-part group plans, buffer
    slot assignments for every send/receive, and the fold interleave
    specs.  A serial replay of the shards is checked bit-for-bit
    against ``plan.apply_y`` before they are returned, mirroring
    :func:`compile_plan`'s own self-check.
    """
    m = p.matrix
    nrows, ncols = m.shape
    k = p.nparts
    if (plan.nrows, plan.ncols, plan.nparts, plan.nnz) != (nrows, ncols, k, m.nnz):
        raise SimulationError(
            f"plan compiled for shape ({plan.nrows}, {plan.ncols}), "
            f"K={plan.nparts}, nnz {plan.nnz} does not match the partition's "
            f"({nrows}, {ncols}), K={k}, nnz {m.nnz}"
        )
    mode = plan.executor
    rows, cols = m.row, m.col
    vals = np.asarray(m.data, dtype=np.float64)
    x_part = p.vectors.x_part
    y_part = p.vectors.y_part
    own_rows = [np.flatnonzero(y_part == q) for q in range(k)]
    empty = np.empty(0, dtype=np.int64)

    if mode == "two":
        owner = np.asarray(p.nnz_part, dtype=np.int64)
        pk = owner * nrows + rows
        pkeys = unique_ints(pk)
        ps_owner = pkeys // nrows
        ps_row = pkeys % nrows
        ps_dst = y_part[ps_row]
        ps_start = _part_starts(ps_owner, k)

        need = x_part[cols] != owner
        recv_keys = delivery_keys(owner[need], cols[need], ncols)
        x_dst = recv_keys // ncols
        x_j = recv_keys % ncols
        x_src = x_part[x_j]

        expand = _Items()
        expand.add(x_src, x_dst, 0, recv_keys, x_j)
        expand.finalize(k, "expand", plan)
        away = np.flatnonzero(ps_owner != ps_dst)
        fold_items = _Items()
        fold_items.add(ps_owner[away], ps_dst[away], 1, pkeys[away], away)
        fold_items.finalize(k, "fold", plan)
        slot_of_ps = fold_items.slot_of_partial(pkeys.size)

        shards = []
        for q in range(k):
            sel = owner == q
            fold_idx = np.flatnonzero(ps_dst == q)
            local_cols = cols[sel]
            x_own = unique_ints(
                np.concatenate(
                    (local_cols[x_part[local_cols] == q], x_j[x_src == q])
                )
            )
            shards.append(
                PartPlan(
                    part=q,
                    mode=mode,
                    own_rows=own_rows[q],
                    x_own_cols=x_own,
                    pre_cols=local_cols,
                    pre_vals=vals[sel],
                    group1=_GroupPlan.build(pk[sel])[0],
                    has_fold=True,
                    fold_rows_c=_compact(own_rows[q], ps_row[fold_idx]),
                    fold_gather=_gather_spec(
                        fold_idx, ps_owner, q, ps_start, slot_of_ps
                    ),
                    sends={
                        "expand": expand.send_spec(q, ps_start),
                        "fold": fold_items.send_spec(q, ps_start),
                    },
                    recvs_x={"expand": expand.recv_x(q)},
                )
            )
        return _check_shards(p, plan, shards)

    # single / routed: the single-phase nonzero classification.
    rp, cp, owner, pre_mask, main_mask = classify_nonzeros(p)
    pre_owner = owner[pre_mask]
    pre_cols_all = cols[pre_mask]
    pre_vals_all = vals[pre_mask]
    pk = pre_owner.astype(np.int64) * nrows + rows[pre_mask]
    pkeys = unique_ints(pk)
    ps_owner = pkeys // nrows
    ps_row = pkeys % nrows
    ps_dst = y_part[ps_row]
    ps_start = _part_starts(ps_owner, k)

    need_mask = main_mask & (cp != rp)
    recv_keys = delivery_keys(rp[need_mask], cols[need_mask], ncols)
    x_dst = recv_keys // ncols
    x_j = recv_keys % ncols
    x_src = x_part[x_j]

    main_owner = owner[main_mask]
    main_rows_all = rows[main_mask]
    main_cols_all = cols[main_mask]
    main_vals_all = vals[main_mask]

    def _main_shard(q: int):
        sel = main_owner == q
        return main_rows_all[sel], main_cols_all[sel], main_vals_all[sel]

    if mode == "single":
        phase = "expand-and-fold"
        items = _Items()
        items.add(x_src, x_dst, 0, recv_keys, x_j)
        items.add(ps_owner, ps_dst, 1, pkeys, np.arange(pkeys.size, dtype=np.int64))
        items.finalize(k, phase, plan)
        slot_of_ps = items.slot_of_partial(pkeys.size)

        shards = []
        for q in range(k):
            sel = pre_owner == q
            mr, mc, mv = _main_shard(q)
            fold_idx = np.flatnonzero(ps_dst == q)
            x_own = unique_ints(
                np.concatenate((pre_cols_all[sel], mc[x_part[mc] == q], x_j[x_src == q]))
            )
            shards.append(
                PartPlan(
                    part=q,
                    mode=mode,
                    own_rows=own_rows[q],
                    x_own_cols=x_own,
                    pre_cols=pre_cols_all[sel],
                    pre_vals=pre_vals_all[sel],
                    group1=_GroupPlan.build(pk[sel])[0],
                    has_fold=bool(pkeys.size),
                    fold_rows_c=_compact(own_rows[q], ps_row[fold_idx]),
                    fold_gather=_gather_spec(
                        fold_idx, ps_owner, q, ps_start, slot_of_ps
                    ),
                    sends={phase: items.send_spec(q, ps_start)},
                    recvs_x={phase: items.recv_x(q)},
                    main_rows_c=_compact(own_rows[q], mr),
                    main_cols=mc,
                    main_vals=mv,
                )
            )
        return _check_shards(p, plan, shards)

    if mode != "routed":  # pragma: no cover — compile_plan vets the mode
        raise ConfigError(f"unknown executor {mode!r}")

    pr, pc = plan.meta["mesh"]
    y_t = mesh_intermediate(ps_owner, ps_dst, pc)
    x_t = mesh_intermediate(x_src, x_dst, pc)

    # Hop 1: unique (t, j) x copies plus partials toward intermediates.
    x1 = unique_ints(x_t * np.int64(ncols) + x_j)
    x1_t = x1 // ncols
    x1_j = x1 % ncols
    x1_src = x_part[x1_j]
    hop1_x = np.flatnonzero(x1_src != x1_t)
    hop1_y = np.flatnonzero(y_t != ps_owner)
    row_items = _Items()
    row_items.add(x1_src[hop1_x], x1_t[hop1_x], 0, x1[hop1_x], x1_j[hop1_x])
    row_items.add(ps_owner[hop1_y], y_t[hop1_y], 1, pkeys[hop1_y], hop1_y)
    row_items.finalize(k, "route-row", plan)
    slot_of_ps = row_items.slot_of_partial(pkeys.size)

    # Combine at intermediates: the global group2 input is the psum
    # stream in key order; its output keys (t, i) are t-major.
    ckey = y_t * nrows + ps_row
    ckeys = unique_ints(ckey)
    c_t = ckeys // nrows
    c_i = ckeys % nrows
    c_dst = np.empty(ckeys.size, dtype=np.int64)
    c_dst[np.searchsorted(ckeys, ckey)] = ps_dst
    c_start = _part_starts(c_t, k)

    # Hop 2: x words onward to their final destination plus combined
    # partials toward the row owners.
    hop2_x = np.flatnonzero(x_t != x_dst)
    hop2_y = np.flatnonzero(c_t != c_dst)
    col_items = _Items()
    col_items.add(x_t[hop2_x], x_dst[hop2_x], 0, recv_keys[hop2_x], x_j[hop2_x])
    col_items.add(c_t[hop2_y], c_dst[hop2_y], 1, ckeys[hop2_y], hop2_y)
    col_items.finalize(k, "route-col", plan)
    slot_of_cs = col_items.slot_of_partial(ckeys.size)

    shards = []
    for q in range(k):
        sel = pre_owner == q
        mr, mc, mv = _main_shard(q)
        comb_idx = np.flatnonzero(y_t == q)
        fold_idx = np.flatnonzero(c_dst == q)
        sent_x = np.concatenate(
            (x1_j[hop1_x][x1_src[hop1_x] == q],
             x_j[hop2_x][(x_t[hop2_x] == q) & (x_src[hop2_x] == q)])
        )
        x_own = unique_ints(
            np.concatenate((pre_cols_all[sel], mc[x_part[mc] == q], sent_x))
        )
        shards.append(
            PartPlan(
                part=q,
                mode=mode,
                own_rows=own_rows[q],
                x_own_cols=x_own,
                pre_cols=pre_cols_all[sel],
                pre_vals=pre_vals_all[sel],
                group1=_GroupPlan.build(pk[sel])[0],
                has_fold=bool(ckeys.size),
                fold_rows_c=_compact(own_rows[q], c_i[fold_idx]),
                fold_gather=_gather_spec(fold_idx, c_t, q, c_start, slot_of_cs),
                sends={
                    "route-row": row_items.send_spec(q, ps_start),
                    "route-col": col_items.send_spec(q, c_start),
                },
                recvs_x={
                    "route-row": row_items.recv_x(q),
                    "route-col": col_items.recv_x(q),
                },
                main_rows_c=_compact(own_rows[q], mr),
                main_cols=mc,
                main_vals=mv,
                group2=_GroupPlan.build(ckey[comb_idx])[0],
                comb_gather=_gather_spec(comb_idx, ps_owner, q, ps_start, slot_of_ps),
            )
        )
    return _check_shards(p, plan, shards)


def _check_shards(
    p: SpMVPartition, plan: CommPlan, shards: list[PartPlan]
) -> list[PartPlan]:
    """Shard-time self-check: a serial replay of the shards must equal
    the single-core apply bit for bit, and the words each part writes
    must match the ledger's per-part sent volumes per phase."""
    stats = np.zeros((plan.nparts, len(PHASES[plan.executor])), dtype=np.int64)
    y = apply_shards_serial(plan, shards, stats=stats)
    if not np.array_equal(y, plan.apply_y()):
        raise SimulationError(
            "sharded apply disagrees with the single-core plan"
        )  # pragma: no cover — shard-time self-check
    for i, phase in enumerate(PHASES[plan.executor]):
        if not np.array_equal(stats[:, i], plan.ledger.sent_volume(phase)):
            raise SimulationError(
                f"sharded word counts of phase {phase!r} disagree with the "
                "ledger"
            )  # pragma: no cover — shard-time self-check
    return shards
