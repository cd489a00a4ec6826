"""Plan-IR checker: prove a compiled plan well-formed without running it.

A :class:`~repro.runtime.plan.CommPlan` is an index-array IR: frozen
gather/scatter/expand/fold indices plus a static message ledger.  The
apply trusts those arrays completely — an out-of-range index is at
best an ``IndexError`` three layers down and at worst, on the native
kernel backend, a silent out-of-bounds write into foreign memory.
:func:`check_plan` proves, by pure array inspection:

- every index array is in-bounds for its declared buffer
  (``pre_cols``/``main_cols`` < ncols, ``main_rows``/``fold_rows`` <
  nrows, group indices < group length);
- group-sum plans are internally consistent and *monotone*: a
  hist-mode group's ``take`` is strictly increasing and agrees exactly
  with the bins its index array populates, a scatter-mode group hits
  every one of its ``length`` groups — the sorted-unique-key structure
  the grouped sums' accumulation order rests on;
- the numeric pipeline's stage widths agree: ``group1`` consumes
  exactly the precompute products, ``group2`` consumes exactly
  ``group1``'s output, the fold consumes exactly the last group
  stage's output, and ``nnz`` reconciles against the pre/main split;
- the main section is in row order (``main_rows`` nondecreasing), so
  each output row's main products form one contiguous segment — the
  shape the native row-segmented apply sums in a register;
- the executor mode, group/main field shape, ledger phase names and
  phase cost list all agree with the model's communication phases,
  :data:`repro.simulate.common.PHASES`; every recorded message joins
  two distinct parts in range and carries at least one word, and
  every per-part flop count is finite and non-negative.

It guards :func:`repro.partition.serialize.load_plan` and the artifact
store's plan fetch, in front of the unchecked native apply loops.
Checks never raise on malformed input — every defect becomes a
:class:`Violation` in the returned :class:`VerifyReport`; callers that
want an exception use :meth:`VerifyReport.raise_if_failed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import VerificationError
from repro.simulate.common import PHASES

__all__ = ["VerifyReport", "Violation", "check_plan"]

_GROUP_MODES = ("empty", "hist", "scatter")


@dataclass(frozen=True)
class Violation:
    """One statically-proven defect in a plan."""

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
    # populated bins — the sorted-unique-key structure that lays the
    # group sums out in key order.
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
        mode in PHASES,
        "plan.executor-mode",
        "plan",
        f"unknown executor {mode!r}; expected one of {sorted(PHASES)}",
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
    canonical = list(PHASES[mode])
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
