"""Compiled SpMV runtime: reusable communication plans.

The paper's whole point is iterative methods — the same partitioned
SpMV runs hundreds of times — yet a per-call simulation in
:mod:`repro.simulate` derives the full message structure (masks,
searchsorted joins, dedup, packet layouts, audits, the serial
verification) on every multiply.  This package keeps that structure:

- :func:`compile_plan` runs the execution model's single derivation
  (:func:`repro.simulate.report.derive`) once and keeps what it froze
  into a :class:`CommPlan` — gather/scatter index arrays for the
  numeric kernel, the per-iteration message :class:`~repro.simulate.messages.Ledger`,
  and the superstep schedule with its static per-processor flops;
- :meth:`CommPlan.apply` then performs each subsequent multiply as
  pure array gathers/scatters with zero per-call set-up, returning an
  :class:`~repro.simulate.machine.SpMVRun` whose ``y`` and ledger are
  bit-identical to the per-call simulator's (which computes its ``y``
  with this same apply).  A solver multiplies one vector per
  iteration, so each apply takes one right-hand side.

The iterative solvers (:mod:`repro.solvers`), the engine's memoized
``compiled_plan`` intermediate and the CLI ``solve`` subcommand all
run on this layer; compiled plans can be persisted with
:func:`repro.partition.serialize.save_plan`.

The static plan-IR checker (:func:`repro.verify.check_plan`) proves a
plan's index arrays and ledger well-formed without running it.  There
is no parallel executor: the per-part program a process pool once ran
measured slower than this single-core apply and was deleted (see
DESIGN.md, "No parallel executor").
"""

from repro.runtime.compile import compile_plan
from repro.runtime.plan import CommPlan

__all__ = ["CommPlan", "compile_plan"]
