"""Plan-IR checker: prove a compiled plan well-formed without running it.

A :class:`~repro.runtime.plan.CommPlan` (and its sharded
:class:`~repro.runtime.plan.PartPlan` decomposition) is an index-array
IR: frozen gather/scatter/expand/fold indices plus a static message
ledger.  The executors trust those arrays completely — an out-of-range
index is at best an ``IndexError`` three layers down and at worst, on
the native kernel backend, a silent out-of-bounds write into foreign
memory.  This module proves, by pure array inspection:

**Plan level** (:func:`check_plan`)

- every index array is in-bounds for its declared buffer
  (``pre_cols``/``main_cols`` < ncols, ``main_rows``/``fold_rows`` <
  nrows, group indices < group length);
- group-sum plans are internally consistent and *monotone*: a
  hist-mode group's ``take`` is strictly increasing and agrees exactly
  with the bins its index array populates, a scatter-mode group hits
  every one of its ``length`` groups — the sorted-unique-key structure
  that owner-major sharding (and hence parallel bit-identity) depends
  on;
- the numeric pipeline's stage widths agree: ``group1`` consumes
  exactly the precompute products, ``group2`` consumes exactly
  ``group1``'s output, the fold consumes exactly the last group
  stage's output, and ``nnz`` reconciles against the pre/main split;
- the main section is in row order (``main_rows`` nondecreasing), so
  each output row's main products form one contiguous segment — the
  shape the native row-segmented apply sums in a register;
- the executor mode, group/main field shape, ledger phase names and
  superstep cost schedule all agree with the canonical schedule of
  :data:`repro.runtime.shards.SCHEDULE`.

**Shard level** (:func:`check_shards`)

- owned-row sets are sorted, disjoint, and cover every output row
  exactly once (the property that makes per-part folds a partition of
  ``y``);
- every per-part index array is in-bounds for its (compact) buffers;
- per phase, the send slots of the shards are **pair-contiguous and
  exactly reconcile against** ``ledger.phase_pairs``: slots are laid
  out in sorted ``(src, dst)`` pair order with each pair occupying one
  contiguous run of exactly its ledger word count, every part writes
  precisely the slot set of its outgoing pairs, and the union covers
  the whole buffer with no overlap;
- every receive (x receives, fold/combine gathers) reads only slots
  inside ranges addressed *to* that part, and only from phases whose
  send superstep precedes the receive superstep — so the superstep
  schedule is statically deadlock-free: no part ever waits on a
  message that no schedule step produces;
- gather interleaves are exact permutations (buffer and local
  positions partition the gather output) with in-range local indices.

Checks never raise on malformed input — every defect becomes a
:class:`Violation` in the returned :class:`VerifyReport`; callers that
want an exception use :meth:`VerifyReport.raise_if_failed` or
:func:`verify_plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import VerificationError
from repro.runtime.shards import PHASES, SCHEDULE

__all__ = [
    "VerifyReport",
    "Violation",
    "check_plan",
    "check_shards",
    "verify_plan",
]

# A plan whose ledger phases or slot traffic cannot be laid onto the
# runtime's superstep SCHEDULE is rejected.  The fold gather reads the
# last phase's buffer, the routed combine gather the first (hop 1).

_GROUP_MODES = ("empty", "hist", "scatter")


@dataclass(frozen=True)
class Violation:
    """One statically-proven defect in a plan or shard set."""

    check: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.location}: {self.message}"


@dataclass
class VerifyReport:
    """Outcome of one static verification pass."""

    target: str
    checks: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "VerifyReport") -> "VerifyReport":
        for c in other.checks:
            if c not in self.checks:
                self.checks.append(c)
        self.violations.extend(other.violations)
        return self

    def summary(self) -> str:
        if self.ok:
            return f"{self.target}: OK ({len(self.checks)} checks)"
        head = (
            f"{self.target}: {len(self.violations)} violation(s) "
            f"across {len(self.checks)} checks"
        )
        return "\n".join([head] + [f"  {v}" for v in self.violations[:20]])

    def raise_if_failed(self) -> "VerifyReport":
        if not self.ok:
            raise VerificationError(self.summary())
        return self


class _Checker:
    """Violation collector with a running check registry."""

    def __init__(self, target: str):
        self.report = VerifyReport(target=target)

    def ran(self, check: str) -> None:
        if check not in self.report.checks:
            self.report.checks.append(check)

    def flag(self, check: str, location: str, message: str) -> None:
        self.ran(check)
        self.report.violations.append(Violation(check, location, message))

    def require(self, ok: bool, check: str, location: str, message: str) -> bool:
        self.ran(check)
        if not ok:
            self.report.violations.append(Violation(check, location, message))
        return bool(ok)


# ----------------------------------------------------------------------
# Array primitives
# ----------------------------------------------------------------------


def _is_int_array(arr) -> bool:
    return isinstance(arr, np.ndarray) and np.issubdtype(arr.dtype, np.integer)


def _bounds_ok(arr: np.ndarray, bound: int) -> bool:
    """Every element in ``[0, bound)`` (vacuously true when empty)."""
    if arr.size == 0:
        return True
    return bool(arr.min() >= 0 and arr.max() < bound)


def _check_index(
    ck: _Checker, check: str, loc: str, name: str, arr, bound: int
) -> bool:
    """In-bounds integer index array check; returns usability."""
    if not _is_int_array(arr):
        ck.flag(check, loc, f"{name} is not an integer ndarray")
        return False
    if not ck.require(
        _bounds_ok(arr, bound),
        check,
        loc,
        f"{name} has entries outside [0, {bound}) "
        f"(min {arr.min() if arr.size else '-'}, "
        f"max {arr.max() if arr.size else '-'})",
    ):
        return False
    return True


def _group_out_size(g) -> int:
    """The number of sums a group plan emits (``apply`` output size)."""
    if g.mode == "hist":
        return int(g.take.size) if g.take is not None else -1
    if g.mode == "scatter":
        return int(g.length)
    return int(g.index.size)  # empty: values pass through


def _check_group(ck: _Checker, g, loc: str) -> bool:
    """Internal consistency + monotonicity of one frozen group plan.

    Returns False when the group is too broken for downstream size
    checks to be meaningful.
    """
    check = "group.structure"
    if g.mode not in _GROUP_MODES:
        ck.flag(check, loc, f"unknown group mode {g.mode!r}")
        return False
    if not _is_int_array(g.index):
        ck.flag(check, loc, "group index is not an integer ndarray")
        return False
    if g.mode == "empty":
        ok = ck.require(
            g.index.size == 0 and int(g.length) == 0,
            check,
            loc,
            "empty-mode group carries indices or a nonzero length",
        )
        return ok
    length = int(g.length)
    if not ck.require(length >= 0, check, loc, f"negative group length {length}"):
        return False
    if not _check_index(ck, "group.index-bounds", loc, "group index", g.index, length):
        return False
    counts = np.bincount(g.index, minlength=length)
    if g.mode == "scatter":
        # np.unique-derived: every group in [0, length) must be hit.
        return ck.require(
            g.take is None and (length == 0 or counts.min() > 0),
            "group.monotone",
            loc,
            "scatter-mode group does not cover every group id "
            "(or carries a stray take array)",
        )
    # hist mode: take must be the exact, strictly-increasing set of
    # populated bins — the sorted-unique-key (owner-major/monotone)
    # structure bit-identical sharding depends on.
    if g.take is None or not _is_int_array(g.take):
        ck.flag("group.monotone", loc, "hist-mode group lacks an integer take array")
        return False
    ok = ck.require(
        _bounds_ok(g.take, length)
        and (g.take.size < 2 or bool(np.all(np.diff(g.take) > 0))),
        "group.monotone",
        loc,
        "hist-mode take is out of range or not strictly increasing",
    )
    ok = (
        ck.require(
            np.array_equal(np.flatnonzero(counts > 0), np.sort(g.take))
            if _bounds_ok(g.take, length)
            else False,
            "group.monotone",
            loc,
            "hist-mode take disagrees with the bins its index populates",
        )
        and ok
    )
    return ok


# ----------------------------------------------------------------------
# Plan-level checks
# ----------------------------------------------------------------------


def check_plan(plan) -> VerifyReport:
    """Statically verify one compiled :class:`~repro.runtime.CommPlan`."""
    ck = _Checker(f"CommPlan(executor={getattr(plan, 'executor', '?')!r})")

    mode = plan.executor
    if not ck.require(
        mode in SCHEDULE,
        "plan.executor-mode",
        "plan",
        f"unknown executor {mode!r}; expected one of {sorted(SCHEDULE)}",
    ):
        return ck.report

    nrows, ncols, nparts = int(plan.nrows), int(plan.ncols), int(plan.nparts)
    ck.require(
        nrows >= 0 and ncols >= 0 and nparts >= 1,
        "plan.shape",
        "plan",
        f"bad shape/parts: nrows={nrows} ncols={ncols} nparts={nparts}",
    )

    has_main = plan.main_rows is not None
    has_g2 = plan.group2 is not None
    ck.require(
        (mode == "two" and not has_main and not has_g2)
        or (mode == "single" and has_main and not has_g2)
        or (mode == "routed" and has_main and has_g2),
        "plan.executor-mode",
        "plan",
        f"field shape (main={has_main}, group2={has_g2}) does not match "
        f"executor {mode!r}",
    )

    # --- precompute stage -------------------------------------------------
    _check_index(ck, "plan.index-bounds", "plan.pre_cols", "pre_cols", plan.pre_cols, ncols)
    g1_ok = _check_group(ck, plan.group1, "plan.group1")
    ck.require(
        isinstance(plan.pre_vals, np.ndarray)
        and plan.pre_vals.size == plan.pre_cols.size,
        "plan.pipeline-sizes",
        "plan",
        f"pre_vals size {getattr(plan.pre_vals, 'size', '?')} != "
        f"pre_cols size {plan.pre_cols.size}",
    )
    if g1_ok:
        ck.require(
            plan.group1.index.size == plan.pre_cols.size,
            "plan.pipeline-sizes",
            "plan.group1",
            f"group1 consumes {plan.group1.index.size} items but the "
            f"precompute produces {plan.pre_cols.size}",
        )

    # --- combine / fold stages -------------------------------------------
    stage_out = _group_out_size(plan.group1) if g1_ok else -1
    if has_g2:
        g2_ok = _check_group(ck, plan.group2, "plan.group2")
        if g2_ok and stage_out >= 0:
            ck.require(
                plan.group2.index.size == stage_out,
                "plan.pipeline-sizes",
                "plan.group2",
                f"group2 consumes {plan.group2.index.size} items but "
                f"group1 emits {stage_out}",
            )
        stage_out = _group_out_size(plan.group2) if g2_ok else -1
    _check_index(
        ck, "plan.index-bounds", "plan.fold_rows", "fold_rows", plan.fold_rows, nrows
    )
    if stage_out >= 0:
        ck.require(
            plan.fold_rows.size == stage_out,
            "plan.pipeline-sizes",
            "plan.fold_rows",
            f"fold scatters {plan.fold_rows.size} rows but the last group "
            f"stage emits {stage_out} sums",
        )

    # --- main products ----------------------------------------------------
    main_nnz = 0
    if has_main:
        _check_index(
            ck, "plan.index-bounds", "plan.main_rows", "main_rows", plan.main_rows, nrows
        )
        _check_index(
            ck, "plan.index-bounds", "plan.main_cols", "main_cols", plan.main_cols, ncols
        )
        ck.require(
            plan.main_vals is not None
            and plan.main_rows.size == plan.main_cols.size == plan.main_vals.size,
            "plan.pipeline-sizes",
            "plan.main",
            "main_rows/main_cols/main_vals sizes disagree",
        )
        rows = plan.main_rows
        ck.require(
            not _is_int_array(rows) or rows.size < 2 or bool(np.all(rows[1:] >= rows[:-1])),
            "plan.main-order",
            "plan.main_rows",
            "main_rows is not nondecreasing (the native apply sums each "
            "row's main products as one contiguous segment)",
        )
        main_nnz = int(plan.main_rows.size)
    ck.require(
        int(plan.nnz) == int(plan.pre_cols.size) + main_nnz,
        "plan.nnz-reconcile",
        "plan",
        f"nnz={plan.nnz} but pre ({plan.pre_cols.size}) + main ({main_nnz}) "
        f"= {plan.pre_cols.size + main_nnz}",
    )

    _check_ledger(ck, plan, mode, nparts)
    return ck.report


def _check_ledger(ck: _Checker, plan, mode: str, nparts: int) -> None:
    ledger = plan.ledger
    ck.require(
        ledger.nparts == nparts,
        "plan.ledger",
        "plan.ledger",
        f"ledger is for {ledger.nparts} parts, plan for {nparts}",
    )
    canonical = list(SCHEDULE[mode])
    names = ledger.phase_names
    ck.require(
        all(n in canonical for n in names)
        and names == [n for n in canonical if n in names],
        "plan.ledger",
        "plan.ledger",
        f"ledger phases {names} are not an ordered subset of the "
        f"{mode!r} schedule {canonical}",
    )
    for name in names:
        src, dst, words = ledger.phase_pairs(name)
        loc = f"plan.ledger[{name!r}]"
        ck.require(
            _bounds_ok(src, nparts) and _bounds_ok(dst, nparts),
            "plan.ledger",
            loc,
            "message endpoints outside the part range",
        )
        ck.require(
            bool(np.all(src != dst)) if src.size else True,
            "plan.ledger",
            loc,
            "self-message recorded",
        )
        ck.require(
            bool(np.all(words > 0)) if words.size else True,
            "plan.ledger",
            loc,
            "empty message recorded",
        )
    for i, ph in enumerate(plan.phases):
        loc = f"plan.phases[{i}]"
        if ph.comm_phase is not None:
            ck.require(
                ph.comm_phase in canonical,
                "plan.phases",
                loc,
                f"comm phase {ph.comm_phase!r} is not in the {mode!r} schedule",
            )
        if ph.flops is not None:
            ck.require(
                isinstance(ph.flops, np.ndarray)
                and ph.flops.size == nparts
                and bool(np.all(np.isfinite(ph.flops)))
                and bool(np.all(ph.flops >= 0)),
                "plan.phases",
                loc,
                "per-part flops are not a finite non-negative array of size K",
            )


# ----------------------------------------------------------------------
# Shard-level checks
# ----------------------------------------------------------------------


def _pair_ranges(ledger, phase: str, nparts: int):
    """Slot ranges of every ``(src, dst)`` pair in ledger pair order.

    Slot assignment at shard time lexsorts by ``(src, dst, cat, key)``,
    so the buffer is partitioned into contiguous runs, one per pair, in
    sorted pair order, each exactly the pair's ledger word count.
    Returns ``(src, dst, start, stop)`` arrays plus the buffer size.
    """
    src, dst, words = ledger.phase_pairs(phase)
    stop = np.cumsum(words)
    start = stop - words
    total = int(stop[-1]) if words.size else 0
    return src, dst, start, stop, total


def _ranges_for(
    src: np.ndarray, start: np.ndarray, stop: np.ndarray, q: int
) -> np.ndarray:
    """Sorted concatenation of all slot indices in ranges where
    ``src == q`` (works for dst-side selection by passing dst)."""
    sel = np.flatnonzero(src == q)
    if sel.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.arange(start[i], stop[i], dtype=np.int64) for i in sel])


def _slots_in_ranges(slots: np.ndarray, allowed: np.ndarray) -> bool:
    """Every slot a member of the (sorted) allowed slot set."""
    if slots.size == 0:
        return True
    if allowed.size == 0:
        return False
    pos = np.searchsorted(allowed, slots)
    pos[pos == allowed.size] = allowed.size - 1
    return bool(np.all(allowed[pos] == slots))


def _check_gather(
    ck: _Checker, gather, loc: str, *, local_size: int, allowed_slots: np.ndarray
) -> None:
    """One interleave spec: positions partition the output, local
    indices are in range, buffer reads stay inside inbound ranges."""
    size = int(gather.size)
    for name, arr in (
        ("buf_pos", gather.buf_pos),
        ("buf_slots", gather.buf_slots),
        ("loc_pos", gather.loc_pos),
        ("loc_idx", gather.loc_idx),
    ):
        if not _is_int_array(arr):
            ck.flag("shards.gather", loc, f"{name} is not an integer ndarray")
            return
    ck.require(
        gather.buf_pos.size == gather.buf_slots.size
        and gather.loc_pos.size == gather.loc_idx.size,
        "shards.gather",
        loc,
        "gather position/index arrays have mismatched sizes",
    )
    positions = np.concatenate((gather.buf_pos, gather.loc_pos))
    ck.require(
        positions.size == size
        and np.array_equal(np.sort(positions), np.arange(size)),
        "shards.gather",
        loc,
        f"gather positions do not partition [0, {size})",
    )
    ck.require(
        _bounds_ok(gather.loc_idx, local_size),
        "shards.gather",
        loc,
        f"local gather indices outside [0, {local_size})",
    )
    ck.require(
        _slots_in_ranges(np.sort(gather.buf_slots), allowed_slots),
        "shards.recv-slots",
        loc,
        "gather reads buffer slots outside the ranges addressed to this part",
    )


def check_shards(plan, shards) -> VerifyReport:
    """Statically verify a :func:`~repro.runtime.compile.shard_plan`
    decomposition against its plan."""
    ck = _Checker(
        f"PartPlans(K={getattr(plan, 'nparts', '?')}, "
        f"executor={getattr(plan, 'executor', '?')!r})"
    )
    mode = plan.executor
    if not ck.require(
        mode in SCHEDULE,
        "shards.structure",
        "shards",
        f"unknown executor {mode!r}",
    ):
        return ck.report
    nparts, nrows, ncols = int(plan.nparts), int(plan.nrows), int(plan.ncols)
    if not ck.require(
        len(shards) == nparts
        and sorted(s.part for s in shards) == list(range(nparts)),
        "shards.structure",
        "shards",
        f"expected one shard per part 0..{nparts - 1}, "
        f"got parts {sorted(s.part for s in shards)}",
    ):
        return ck.report
    ck.require(
        all(s.mode == mode for s in shards),
        "shards.structure",
        "shards",
        "shard modes disagree with the plan executor",
    )
    shards = sorted(shards, key=lambda s: s.part)

    # --- owned rows: sorted, disjoint, covering ---------------------------
    all_rows = []
    for s in shards:
        loc = f"shard[{s.part}].own_rows"
        if _check_index(ck, "shards.own-rows", loc, "own_rows", s.own_rows, nrows):
            ck.require(
                s.own_rows.size < 2 or bool(np.all(np.diff(s.own_rows) > 0)),
                "shards.own-rows",
                loc,
                "own_rows is not strictly increasing",
            )
        all_rows.append(np.asarray(s.own_rows).ravel())
    union = np.concatenate(all_rows) if all_rows else np.empty(0, dtype=np.int64)
    ck.require(
        union.size == nrows and np.array_equal(np.sort(union), np.arange(nrows)),
        "shards.own-rows",
        "shards",
        f"owned-row sets are not a disjoint cover of [0, {nrows}) "
        f"({union.size} rows claimed)",
    )

    # --- per-phase buffer layout ------------------------------------------
    canonical = list(SCHEDULE[mode])
    layouts = {ph: _pair_ranges(plan.ledger, ph, nparts) for ph in canonical}
    pre_total = 0
    main_total = 0

    for s in shards:
        who = f"shard[{s.part}]"
        q = s.part
        n_local = int(np.asarray(s.own_rows).size)

        _check_index(
            ck, "shards.index-bounds", f"{who}.x_own_cols", "x_own_cols",
            s.x_own_cols, ncols,
        )
        _check_index(
            ck, "shards.index-bounds", f"{who}.pre_cols", "pre_cols",
            s.pre_cols, ncols,
        )
        g1_ok = _check_group(ck, s.group1, f"{who}.group1")
        ck.require(
            s.pre_vals.size == s.pre_cols.size
            and (not g1_ok or s.group1.index.size == s.pre_cols.size),
            "shards.pipeline-sizes",
            who,
            "precompute value/column/group sizes disagree",
        )
        pre_total += int(s.pre_cols.size)
        local_psums = _group_out_size(s.group1) if g1_ok else 0

        g2_ok = False
        local_csums = 0
        if mode == "routed":
            g2_ok = s.group2 is not None and _check_group(
                ck, s.group2, f"{who}.group2"
            )
            local_csums = _group_out_size(s.group2) if g2_ok else 0
        # What each phase's published partials index into: the ``two``
        # expand hop carries x only, the routed second hop publishes
        # the *combined* sums (group2 output), everything else the
        # part's group1 partial sums.
        psum_bound = {
            "expand-and-fold": local_psums,
            "expand": 0,
            "fold": local_psums,
            "route-row": local_psums,
            "route-col": local_csums,
        }

        if s.main_rows_c is not None:
            _check_index(
                ck, "shards.index-bounds", f"{who}.main_rows_c", "main_rows_c",
                s.main_rows_c, n_local,
            )
            _check_index(
                ck, "shards.index-bounds", f"{who}.main_cols", "main_cols",
                s.main_cols, ncols,
            )
            ck.require(
                s.main_vals is not None
                and s.main_rows_c.size == s.main_cols.size == s.main_vals.size,
                "shards.pipeline-sizes",
                who,
                "main_rows_c/main_cols/main_vals sizes disagree",
            )
            main_total += int(s.main_rows_c.size)

        # Sends: the union of this part's slot writes must be exactly
        # the slot ranges of its outgoing ledger pairs — the
        # pair-contiguity + reconciliation check.
        ck.require(
            set(s.sends) == set(canonical) and set(s.recvs_x) <= set(canonical),
            "shards.schedule",
            who,
            f"send/recv phases {sorted(s.sends)}/{sorted(s.recvs_x)} do not "
            f"match the {mode!r} schedule {canonical}",
        )
        for ph in canonical:
            spec = s.sends.get(ph)
            if spec is None:
                continue
            lsrc, ldst, lstart, lstop, btotal = layouts[ph]
            loc = f"{who}.sends[{ph!r}]"
            if not (
                _is_int_array(spec.x_slots)
                and _is_int_array(spec.p_slots)
                and _is_int_array(spec.x_cols)
                and _is_int_array(spec.p_idx)
            ):
                ck.flag("shards.send-slots", loc, "send spec arrays are not integer ndarrays")
                continue
            ck.require(
                spec.x_slots.size == spec.x_cols.size
                and spec.p_slots.size == spec.p_idx.size,
                "shards.send-slots",
                loc,
                "slot/payload array sizes disagree",
            )
            _check_index(
                ck, "shards.index-bounds", loc, "x_cols", spec.x_cols, ncols
            )
            ck.require(
                _bounds_ok(spec.p_idx, psum_bound[ph]),
                "shards.send-slots",
                loc,
                f"published partial indices outside the part's "
                f"{psum_bound[ph]} phase-{ph!r} partial sums",
            )
            written = np.sort(np.concatenate((spec.x_slots, spec.p_slots)))
            expected = _ranges_for(lsrc, lstart, lstop, q)
            ck.require(
                np.array_equal(written, expected),
                "shards.send-slots",
                loc,
                f"writes {written.size} slots but the ledger assigns this "
                f"part {expected.size} pair-contiguous slots in phase {ph!r}",
            )

        # Receives: reads stay inside inbound ranges; the sender's
        # superstep strictly precedes the reader's, so no receive can
        # wait on a message the schedule never produces.
        for ph, spec in s.recvs_x.items():
            if ph not in layouts:
                continue  # flagged by shards.schedule above
            lsrc, ldst, lstart, lstop, btotal = layouts[ph]
            loc = f"{who}.recvs_x[{ph!r}]"
            if not (_is_int_array(spec.slots) and _is_int_array(spec.cols)):
                ck.flag("shards.recv-slots", loc, "recv spec arrays are not integer ndarrays")
                continue
            ck.require(
                spec.slots.size == spec.cols.size,
                "shards.recv-slots",
                loc,
                "slot/column array sizes disagree",
            )
            _check_index(ck, "shards.index-bounds", loc, "cols", spec.cols, ncols)
            inbound = _ranges_for(ldst, lstart, lstop, q)
            ck.require(
                _slots_in_ranges(np.sort(spec.slots), inbound),
                "shards.recv-slots",
                loc,
                "reads buffer slots outside the ranges addressed to this part",
            )
            send_step, recv_step = SCHEDULE[mode][ph]
            ck.require(
                send_step < recv_step,
                "shards.schedule",
                loc,
                f"phase {ph!r} would be read at step {recv_step} before its "
                f"send step {send_step} completes",
            )

        # Fold gather reads the mode's last (fold-carrying) phase.
        lsrc, ldst, lstart, lstop, _ = layouts[PHASES[mode][-1]]
        fold_local = local_psums
        if mode == "routed":
            fold_local = local_csums
            if s.comb_gather is not None:
                csrc, cdst, cstart, cstop, _ = layouts[PHASES[mode][0]]
                _check_gather(
                    ck,
                    s.comb_gather,
                    f"{who}.comb_gather",
                    local_size=local_psums,
                    allowed_slots=_ranges_for(cdst, cstart, cstop, q),
                )
                if g2_ok:
                    ck.require(
                        s.group2.index.size == s.comb_gather.size,
                        "shards.pipeline-sizes",
                        who,
                        f"group2 consumes {s.group2.index.size} items but the "
                        f"combine gather assembles {s.comb_gather.size}",
                    )
            else:
                ck.flag("shards.structure", who, "routed shard lacks a combine gather")
        _check_index(
            ck, "shards.index-bounds", f"{who}.fold_rows_c", "fold_rows_c",
            s.fold_rows_c, max(n_local, 1) if n_local else 1,
        )
        _check_gather(
            ck,
            s.fold_gather,
            f"{who}.fold_gather",
            local_size=fold_local,
            allowed_slots=_ranges_for(ldst, lstart, lstop, q),
        )
        ck.require(
            s.fold_rows_c.size == s.fold_gather.size,
            "shards.pipeline-sizes",
            who,
            f"fold scatters {s.fold_rows_c.size} rows but the fold gather "
            f"assembles {s.fold_gather.size}",
        )

    # The shards' nonzeros must re-tile the plan's.
    main_plan = 0 if plan.main_rows is None else int(plan.main_rows.size)
    ck.require(
        pre_total == int(plan.pre_cols.size) and main_total == main_plan,
        "shards.nnz-cover",
        "shards",
        f"shards carry pre={pre_total}/main={main_total} nonzeros, plan has "
        f"pre={plan.pre_cols.size}/main={main_plan}",
    )
    return ck.report


def verify_plan(plan, shards=None, *, raise_on_error: bool = True) -> VerifyReport:
    """Run :func:`check_plan` (and :func:`check_shards` when ``shards``
    is given) and optionally raise :class:`~repro.errors.VerificationError`."""
    report = check_plan(plan)
    if shards is not None:
        report.merge(check_shards(plan, shards))
    if raise_on_error:
        report.raise_if_failed()
    return report
