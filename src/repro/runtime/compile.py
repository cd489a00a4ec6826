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

from repro.partition.types import SpMVPartition
from repro.runtime.plan import CommPlan
from repro.simulate.report import derive

__all__ = ["compile_plan"]


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

