"""Distributed-memory SpMV simulator.

The paper times real MPI runs on a Cray XE6; this package substitutes a
deterministic simulator that *executes* each parallel SpMV algorithm —
every processor computes only with data it owns or has received, and
every message is recorded in a ledger — then prices the run with a
BSP-style α/β/γ machine model.  The simulated ``y`` is checked against
the serial ``A @ x``, so the executors are functional models of the
algorithms, not formulas.

Each execution model has one derivation (``derive_*``): a single pass
from a partition to its routing keys, ledger, flops, audits and
compiled :class:`~repro.runtime.plan.CommPlan`.  The simulators
(``run_*``) and :func:`repro.runtime.compile_plan` both run it.

- :mod:`repro.simulate.messages` — the message ledger;
- :mod:`repro.simulate.machine` — the cost model and speedup estimate;
- :mod:`repro.simulate.singlephase` — the paper's modified SpMV
  (Precompute / Expand-and-Fold / Compute) for s2D and 1D partitions;
- :mod:`repro.simulate.twophase` — the standard expand/fold SpMV for
  2D partitions (also runs 2D-b and 1D-b, whose bounded patterns come
  from their vector placement);
- :mod:`repro.simulate.bounded` — the mesh-routed fused exchange of
  s2D-b;
- :mod:`repro.simulate.common` — the audits and types the three
  derivations share;
- :mod:`repro.simulate.report` — the mode dispatch and one-call
  evaluation producing the numbers the paper's tables report.

The seed executors' ledgers, flops and ``y`` are frozen in
``tests/fixtures/simulate_seed.npz``, the independent oracle the
derivations are pinned against (bit-identical ledgers).

Every derivation phase runs under an ``obs.span("simulate.<phase>")``
and every ``run_*`` call bumps the ``simulate.runs`` counter, so a
:func:`repro.obs.tracing` block (and the CLI's ``simulate --profile``
table folded from it) sees where executor time goes.
"""

from repro.simulate.bounded import run_s2d_bounded
from repro.simulate.machine import MachineModel, SpMVRun
from repro.simulate.messages import Ledger
from repro.simulate.report import PartitionQuality, evaluate
from repro.simulate.singlephase import run_single_phase
from repro.simulate.twophase import run_two_phase

__all__ = [
    "Ledger",
    "MachineModel",
    "SpMVRun",
    "run_single_phase",
    "run_two_phase",
    "run_s2d_bounded",
    "evaluate",
    "PartitionQuality",
]
