"""Static verification layer: prove properties without executing.

The repository's correctness story was, until this package, entirely
dynamic — golden bit-identity tests and serial replays.  This package
adds the *static* half, aimed at the two artifacts whose integrity
everything else rests on:

- :mod:`repro.verify.plan_checks` — the plan-IR checker: given a
  compiled :class:`~repro.runtime.CommPlan`, prove that every
  gather/scatter/expand/fold index array is in-bounds for its declared
  buffer, that group-sum structures are monotone, that the pipeline's
  stage widths and ``nnz`` reconcile, that the main section is in row
  order, and that the ledger and phase costs follow the model's
  communication phases;
- :mod:`repro.verify.lint` — a stdlib-``ast`` lint over ``src/``
  encoding the repository's invariant-policy boundaries (accumulation
  primitives confined to kernel layers, environment reads confined to
  resolver modules, one clock, …).

Everything surfaces through the CLI ``check`` subcommand, the
``verify=`` hook of :func:`repro.partition.serialize.unpack_plan` and
:func:`~repro.partition.serialize.load_plan` (on by default, and what
the artifact store's plan fetch runs), and the
``check`` pytest tier.
"""

from repro.verify.lint import LintViolation, lint_paths, lint_source, run_lint
from repro.verify.plan_checks import VerifyReport, Violation, check_plan

__all__ = [
    "LintViolation",
    "VerifyReport",
    "Violation",
    "check_plan",
    "lint_paths",
    "lint_source",
    "run_lint",
]
