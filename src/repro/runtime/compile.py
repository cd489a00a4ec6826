"""Compile a partition's SpMV into a :class:`~repro.runtime.plan.CommPlan`.

Compilation is the execution model's single derivation
(:func:`repro.simulate.report.derive`): one pass over the partition
that builds the routing keys, records the ledger, prices each phase's
flops, freezes the gather/scatter arrays, runs every structural audit
(s2D admissibility, nonzero classification, locality and
fold-ownership, mesh containment) and checks the default ``x`` product
against serial ``A @ x``.  The per-call simulators are the same
derivation, and compute their ``y`` with the plan's own NumPy apply,
so a plan cannot disagree with its simulator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.kernels import GroupPlan, pair_counts, unique_ints
from repro.partition.types import SpMVPartition
from repro.runtime.plan import CommPlan, PartPlan, _Gather, _RecvX, _SendSpec
from repro.runtime.shards import PHASES, apply_shards_serial
from repro.simulate.report import derive

__all__ = ["compile_plan", "shard_plan"]


def compile_plan(p: SpMVPartition, executor: str | None = None) -> CommPlan:
    """Compile partition ``p`` into a reusable :class:`CommPlan`.

    ``executor`` picks the execution model (``"single"``, ``"two"`` or
    ``"routed"``); omitted, it resolves from ``p.kind`` exactly like
    :func:`repro.simulate.report.run_partition` (both go through
    :func:`~repro.simulate.report.resolve_mode`).  Compilation costs
    about one per-call simulation (both run the same derivation) and
    is amortized after about one apply (see
    ``benchmarks/bench_runtime.py``).
    """
    return derive(p, executor=executor).plan


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
    """The word stream of one communication phase, from
    ``(src, dst, cat, key, payload)`` chunks: category 0 carries x
    entries (payload: column index), category 1 carries partial sums
    (payload: global partial index, localized per sender against
    ``partial_start``).  Slot assignment packs the stream
    pair-contiguously in ledger pair order, x block before partial block
    within a pair, key-ascending within a block."""

    def __init__(self, plan: CommPlan, phase: str, chunks, partial_start: np.ndarray):
        src, dst, cat, key, payload = zip(*chunks)
        i64 = lambda parts: np.concatenate([np.asarray(a, dtype=np.int64) for a in parts])  # noqa: E731
        self.src, self.dst, self.key, self.payload = i64(src), i64(dst), i64(key), i64(payload)
        self.cat = np.repeat(np.asarray(cat, dtype=np.int64), [len(a) for a in src])
        self.partial_start = partial_start
        order = np.lexsort((self.key, self.cat, self.dst, self.src))
        self.slots = np.empty(order.size, dtype=np.int64)
        self.slots[order] = np.arange(order.size)
        # The stream must reproduce the plan's ledger exactly — per
        # pair, per phase.  This is the shard-time half of the
        # measured-vs-predicted reconciliation.
        measured = pair_counts(self.src, self.dst, plan.nparts)
        if not all(map(np.array_equal, measured, plan.ledger.phase_pairs(phase))):
            raise SimulationError(
                f"sharded word stream of phase {phase!r} disagrees with the "
                "plan ledger"
            )  # pragma: no cover — shard-time self-check

    def send_spec(self, q: int) -> _SendSpec:
        """Part ``q``'s writes, partial indices localized to ``q``."""
        xs = (self.cat == 0) & (self.src == q)
        ps = (self.cat == 1) & (self.src == q)
        return _SendSpec(
            x_slots=self.slots[xs],
            x_cols=self.payload[xs],
            p_slots=self.slots[ps],
            p_idx=self.payload[ps] - self.partial_start[q],
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
    part, along the routing keys of ``p``'s derivation under the
    plan's execution model.

    The shards carry everything iteration-invariant: per-part
    gather/scatter index slices, frozen per-part group plans, buffer
    slot assignments for every send/receive, and the fold interleave
    specs.  Each phase's word stream is checked against ``plan``'s
    ledger, and a serial replay of the shards bit-for-bit against
    ``plan.apply_y``, before they are returned.
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
    derived = derive(p, executor=mode)
    r, dp = derived.routing, derived.plan
    x_part = p.vectors.x_part
    y_part = p.vectors.y_part
    own_rows = [np.flatnonzero(y_part == q) for q in range(k)]

    # Partials (producer-major keys) and x deliveries, in every model.
    ps_owner = r.pkeys // nrows
    ps_row = r.pkeys % nrows
    ps_dst = y_part[ps_row]
    ps_start = _part_starts(ps_owner, k)
    x_dst = r.recv_keys // ncols
    x_j = r.recv_keys % ncols
    x_src = x_part[x_j]
    x_items = (x_src, x_dst, 0, r.recv_keys, x_j)

    # Each phase's word stream, and the fold's input: the rows, owners
    # and producers of the sums it gathers from the last phase's buffer
    # (the partials themselves, unless routing combined them).
    fold_rows, fold_dst, fold_src, fold_start = ps_row, ps_dst, ps_owner, ps_start
    if mode == "single":
        all_ps = np.arange(r.pkeys.size, dtype=np.int64)
        streams = {
            "expand-and-fold": _Items(
                plan, "expand-and-fold",
                [x_items, (ps_owner, ps_dst, 1, r.pkeys, all_ps)], ps_start,
            )
        }
    elif mode == "two":
        away = np.flatnonzero(ps_owner != ps_dst)
        streams = {
            "expand": _Items(plan, "expand", [x_items], ps_start),
            "fold": _Items(
                plan, "fold",
                [(ps_owner[away], ps_dst[away], 1, r.pkeys[away], away)], ps_start,
            ),
        }
    else:
        # Hop 1: unique (t, j) x copies plus partials toward their
        # intermediates.  Hop 2: x words onward to their destination
        # plus combined partials — group2's output, keys (t, i)
        # t-major — toward the row owners.
        x1_t = r.x1 // ncols
        x1_j = r.x1 % ncols
        x1_src = x_part[x1_j]
        hop1_x = np.flatnonzero(x1_src != x1_t)
        hop1_y = np.flatnonzero(r.y_t != ps_owner)
        c_t = r.ckeys // nrows
        c_start = _part_starts(c_t, k)
        hop2_x = np.flatnonzero(r.x_t != x_dst)
        hop2_y = np.flatnonzero(c_t != r.c_dst)
        streams = {
            "route-row": _Items(plan, "route-row", [
                (x1_src[hop1_x], x1_t[hop1_x], 0, r.x1[hop1_x], x1_j[hop1_x]),
                (ps_owner[hop1_y], r.y_t[hop1_y], 1, r.pkeys[hop1_y], hop1_y),
            ], ps_start),
            "route-col": _Items(plan, "route-col", [
                (r.x_t[hop2_x], x_dst[hop2_x], 0, r.recv_keys[hop2_x], x_j[hop2_x]),
                (c_t[hop2_y], r.c_dst[hop2_y], 1, r.ckeys[hop2_y], hop2_y),
            ], c_start),
        }
        fold_rows, fold_dst, fold_src, fold_start = r.ckeys % nrows, r.c_dst, c_t, c_start
        slot_of_ps = streams["route-row"].slot_of_partial(r.pkeys.size)
    slot_of_fold = streams[PHASES[mode][-1]].slot_of_partial(fold_rows.size)

    shards = []
    for q in range(k):
        sel = r.pre_owner == q
        fold_idx = np.flatnonzero(fold_dst == q)
        sends = {ph: items.send_spec(q) for ph, items in streams.items()}
        shard = dict(
            part=q,
            mode=mode,
            own_rows=own_rows[q],
            pre_cols=dp.pre_cols[sel],
            pre_vals=dp.pre_vals[sel],
            group1=GroupPlan.build(r.pk[sel])[0],
            has_fold=bool(fold_rows.size),
            fold_rows_c=_compact(own_rows[q], fold_rows[fold_idx]),
            fold_gather=_gather_spec(fold_idx, fold_src, q, fold_start, slot_of_fold),
            sends=sends,
            # Every phase but the two-phase fold carries x words.
            recvs_x={ph: items.recv_x(q) for ph, items in streams.items() if ph != "fold"},
        )
        # The part owns the x entries among those it reads or publishes.
        touched = [shard["pre_cols"]] + [spec.x_cols for spec in sends.values()]
        if dp.main_rows is not None:
            msel = r.main_owner == q
            shard.update(
                main_rows_c=_compact(own_rows[q], dp.main_rows[msel]),
                main_cols=dp.main_cols[msel],
                main_vals=dp.main_vals[msel],
            )
            touched.append(shard["main_cols"])
        if mode == "routed":
            comb_idx = np.flatnonzero(r.y_t == q)
            shard.update(
                group2=GroupPlan.build(r.ckey[comb_idx])[0],
                comb_gather=_gather_spec(comb_idx, ps_owner, q, ps_start, slot_of_ps),
            )
        touched = np.concatenate(touched)
        shard["x_own_cols"] = unique_ints(touched[x_part[touched] == q])
        shards.append(PartPlan(**shard))

    # Shard-time self-check: a serial replay of the shards must equal
    # the single-core apply bit for bit, and the words each part writes
    # must match the ledger's per-part sent volumes per phase.
    stats = np.zeros((k, len(PHASES[mode])), dtype=np.int64)
    y = apply_shards_serial(plan, shards, stats=stats)
    if not np.array_equal(y, plan.apply_y()):
        raise SimulationError(
            "sharded apply disagrees with the single-core plan"
        )  # pragma: no cover — shard-time self-check
    for i, phase in enumerate(PHASES[mode]):
        if not np.array_equal(stats[:, i], plan.ledger.sent_volume(phase)):
            raise SimulationError(
                f"sharded word counts of phase {phase!r} disagree with the "
                "ledger"
            )  # pragma: no cover — shard-time self-check
    return shards
