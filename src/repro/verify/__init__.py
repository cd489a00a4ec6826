"""Static verification layer: prove properties without executing.

The repository's correctness story was, until this package, entirely
dynamic — golden bit-identity tests and serial replays.  This package
adds the *static* half, aimed at the two artifacts whose integrity
everything else rests on:

- :mod:`repro.verify.plan_checks` — the plan-IR checker: given a
  compiled :class:`~repro.runtime.CommPlan` (and optionally its
  :func:`~repro.runtime.compile.shard_plan` output), prove that every
  gather/scatter/expand/fold index array is in-bounds for its declared
  buffer, that owned-row sets are disjoint and covering, that send
  slots are pair-contiguous and reconcile exactly against
  ``ledger.phase_pairs``, that group-sum structures are monotone, and
  that the superstep schedule is statically deadlock-free;
- :mod:`repro.verify.lint` — a stdlib-``ast`` lint over ``src/``
  encoding the repository's invariant-policy boundaries (accumulation
  primitives confined to kernel layers, environment reads confined to
  resolver modules, one clock, …).

Everything surfaces through the CLI ``check`` subcommand, the
``verify=`` hooks on :meth:`repro.engine.PartitionEngine.compiled_plan`
and :func:`repro.partition.serialize.load_plan`, and the ``check``
pytest tier.
"""

from repro.verify.lint import LintViolation, lint_paths, lint_source, run_lint
from repro.verify.plan_checks import (
    VerifyReport,
    Violation,
    check_plan,
    check_shards,
    verify_plan,
)

__all__ = [
    "LintViolation",
    "VerifyReport",
    "Violation",
    "check_plan",
    "check_shards",
    "lint_paths",
    "lint_source",
    "run_lint",
    "verify_plan",
]
