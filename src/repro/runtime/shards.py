"""Serial replay of a sharded plan: the paper's per-part program, run on one core.

A compiled :class:`~repro.runtime.plan.CommPlan` is split by
:func:`repro.runtime.compile.shard_plan` into K
:class:`~repro.runtime.plan.PartPlan`s, one per processor of the
paper's distributed SpMV.  :func:`apply_shards_serial` runs those K
owner-computes programs superstep by superstep, each part touching
only its own rows, the x entries it owns or received, and the message
buffers it writes or reads::

    single:  [psums; publish x+partials]  |  [recv x; main + fold]
    two:     [publish x]  |  [recv x; psums; publish partials]  |  [fold]
    routed:  [psums; hop-1 publish]  |  [recv; combine; hop-2 publish]
             |  [recv; main + fold]

This is a verification aid, not an executor: it shows that every plan
really is a two- or three-superstep message-passing program.  Two
properties are checked by ``shard_plan`` before it returns:

- **bit-identity**: the replayed ``y`` equals single-core
  ``CommPlan.apply_y`` bitwise — each part runs the same kernels over
  the same element order, and cross-part combines assemble their
  inputs in the global key order (see ``_Gather``);
- **measured == predicted**: each part counts the words it writes into
  the message buffers, and those counts equal the machine-model
  ledger's per-part sent volume in every phase.

No parallel executor runs the shards: a process pool over them measured
slower than the single-core apply (see DESIGN.md, "Shard
decomposition").  The replay runs NumPy kernels only, whatever the
process's backend: the replay exists to verify plans, and on the
per-part sizes it sees the NumPy kernels are the faster ones.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.plan import CommPlan, PartPlan
from repro.simulate.common import resolve_x

__all__ = ["PHASES", "SCHEDULE", "apply_shards_serial"]

#: Each model's superstep schedule, communication phase → (send step,
#: receive step) in superstep order; ``_PartRunner`` and the plan-IR
#: checker (:mod:`repro.verify.plan_checks`) both follow it.
SCHEDULE: dict[str, dict[str, tuple[int, int]]] = {
    "single": {"expand-and-fold": (0, 1)},
    "two": {"expand": (0, 1), "fold": (1, 2)},
    "routed": {"route-row": (0, 1), "route-col": (1, 2)},
}

# The phases, not ``ledger.phase_names``, define the stats layout: a
# phase with no traffic is absent from the ledger but still owns a
# (zero) stats column.  The last phase carries the partials the fold reads.
PHASES = {mode: tuple(phases) for mode, phases in SCHEDULE.items()}
_N_STEPS = {mode: 1 + max(r for _, r in ph.values()) for mode, ph in SCHEDULE.items()}


class _PartRunner:
    """One part's superstep program over the replay's buffers.

    ``x_local`` starts NaN-poisoned so a read of an x entry the part
    neither owns nor received surfaces as a NaN in ``y`` instead of
    silently using stale data.
    """

    def __init__(
        self,
        shard: PartPlan,
        *,
        ncols: int,
        buffers: dict[str, np.ndarray],
        stats_row: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
    ):
        self.s = shard
        self.buffers = buffers
        self.stats = stats_row
        self.x = x
        self.y = y
        self.x_local = np.full(ncols, np.nan)
        self.psums: np.ndarray | None = None
        self.csums: np.ndarray | None = None
        self.phase_col = {ph: i for i, ph in enumerate(PHASES[shard.mode])}
        self.steps = {
            "single": (self._single0, self._single1),
            "two": (self._two0, self._two1, self._two2),
            "routed": (self._routed0, self._routed1, self._routed2),
        }[shard.mode]

    def run_step(self, step: int) -> None:
        self.steps[step]()

    # ------------------------------------------------------------ pieces

    def _fill_own(self) -> None:
        cols = self.s.x_own_cols
        self.x_local[cols] = self.x[cols]

    def _precompute(self) -> np.ndarray:
        s = self.s
        return s.group1.apply(s.pre_vals * self.x_local[s.pre_cols])

    def _send(self, phase: str, partials: np.ndarray | None) -> None:
        spec = self.s.sends[phase]
        buf = self.buffers[phase]
        if spec.x_slots.size:
            buf[spec.x_slots] = self.x_local[spec.x_cols]
        if spec.p_slots.size:
            buf[spec.p_slots] = partials[spec.p_idx]
        self.stats[self.phase_col[phase]] += spec.words

    def _recv_x(self, phase: str) -> None:
        spec = self.s.recvs_x[phase]
        if spec.slots.size:
            self.x_local[spec.cols] = self.buffers[phase][spec.slots]

    def _main_y(self) -> np.ndarray:
        s = self.s
        return np.bincount(
            s.main_rows_c,
            weights=s.main_vals * self.x_local[s.main_cols],
            minlength=s.nrows_local,
        )

    def _fold(self, phase: str, partials: np.ndarray) -> np.ndarray:
        s = self.s
        w = s.fold_gather.assemble(self.buffers[phase], partials)
        return np.bincount(s.fold_rows_c, weights=w, minlength=s.nrows_local)

    # ------------------------------------------------------------- single

    def _single0(self) -> None:
        self._fill_own()
        self.psums = self._precompute()
        self._send("expand-and-fold", self.psums)

    def _single1(self) -> None:
        s = self.s
        self._recv_x("expand-and-fold")
        y_c = self._main_y()
        if s.has_fold:
            y_c = y_c + self._fold("expand-and-fold", self.psums)
        self.y[s.own_rows] = y_c

    # ---------------------------------------------------------------- two

    def _two0(self) -> None:
        self._fill_own()
        self._send("expand", None)

    def _two1(self) -> None:
        self._recv_x("expand")
        self.psums = self._precompute()
        self._send("fold", self.psums)

    def _two2(self) -> None:
        s = self.s
        self.y[s.own_rows] = self._fold("fold", self.psums)

    # ------------------------------------------------------------- routed

    def _routed0(self) -> None:
        self._fill_own()
        self.psums = self._precompute()
        self._send("route-row", self.psums)

    def _routed1(self) -> None:
        s = self.s
        self._recv_x("route-row")
        w = s.comb_gather.assemble(self.buffers["route-row"], self.psums)
        self.csums = s.group2.apply(w)
        self._send("route-col", self.csums)

    def _routed2(self) -> None:
        s = self.s
        self._recv_x("route-col")
        y_c = self._main_y()
        if s.has_fold:
            y_c = y_c + self._fold("route-col", self.csums)
        self.y[s.own_rows] = y_c


def _buffer_sizes(plan: CommPlan) -> dict[str, int]:
    """Exact per-phase buffer sizes in words, from the ledger."""
    return {
        ph: int(plan.ledger.sent_volume(ph).sum()) for ph in PHASES[plan.executor]
    }


def apply_shards_serial(
    plan: CommPlan,
    shards: list[PartPlan],
    x: np.ndarray | None = None,
    *,
    stats: np.ndarray | None = None,
) -> np.ndarray:
    """Replay the sharded superstep program on one core.

    Runs every part's kernels and buffer traffic in superstep order —
    the reference for bit-identity tests and the shard-time self-check.
    ``stats``, a (K, nphases) int64 array in :data:`PHASES` column
    order, accumulates the words each part writes.  Message buffers
    start NaN-poisoned, so a slot nobody writes poisons ``y``.
    """
    x = resolve_x(x, plan.ncols)
    y = np.zeros(plan.nrows)
    buffers = {ph: np.full(n, np.nan) for ph, n in _buffer_sizes(plan).items()}
    if stats is None:
        stats = np.zeros((plan.nparts, len(PHASES[plan.executor])), dtype=np.int64)
    runners = [
        _PartRunner(
            sh, ncols=plan.ncols, buffers=buffers, stats_row=stats[sh.part],
            x=x, y=y,
        )
        for sh in shards
    ]
    for step in range(_N_STEPS[plan.executor]):
        for r in runners:
            r.run_step(step)
    return y
