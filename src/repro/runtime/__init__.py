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
  with this same apply);
- :meth:`CommPlan.apply_many` batches several right-hand sides through
  the one compiled schedule (column-stacked, same bit-identical
  numerics per column).

The iterative solvers (:mod:`repro.solvers`), the engine's memoized
``compiled_plan`` intermediate and the CLI ``solve`` subcommand all
run on this layer; compiled plans can be persisted with
:func:`repro.partition.serialize.save_plan`.

To verify that a plan is a real per-part message-passing program,
:func:`shard_plan` splits it into per-part :class:`PartPlan`s and
:func:`apply_shards_serial` replays them superstep by superstep on one
core (:mod:`repro.runtime.shards`).
"""

from repro.runtime.compile import compile_plan, shard_plan
from repro.runtime.plan import CommPlan, PartPlan
from repro.runtime.shards import apply_shards_serial

__all__ = [
    "CommPlan",
    "PartPlan",
    "apply_shards_serial",
    "compile_plan",
    "shard_plan",
]
