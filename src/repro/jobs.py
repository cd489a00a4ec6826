"""Worker-count resolution shared by every parallel entry point.

``run_sweep``, the campaign runner and the CLI all take a
``jobs`` knob.  The convention is uniform:

- ``None``  → the caller's default (serial unless stated otherwise);
- ``0``     → auto: one job per usable core;
- ``n > 0`` → exactly ``n`` jobs;
- ``n < 0`` → :class:`~repro.errors.UsageError` (previously this fell
  through to the worker processes as a ``ValueError`` traceback).
"""

from __future__ import annotations

import os

from repro.errors import UsageError

__all__ = ["host_cpus", "resolve_jobs"]


def host_cpus() -> int:
    """Usable cores: CPU affinity where the platform exposes it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - non-Linux platforms


def resolve_jobs(jobs: int | None, *, default: int = 1, what: str = "jobs") -> int:
    """Resolve a ``jobs`` knob to a concrete worker count (see module
    docstring for the convention)."""
    if jobs is None:
        return default
    jobs = int(jobs)
    if jobs < 0:
        raise UsageError(
            f"{what} must be >= 0 (0 means auto: one per core), got {jobs}"
        )
    if jobs == 0:
        return host_cpus()
    return jobs
