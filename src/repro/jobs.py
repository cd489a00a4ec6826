"""Worker-count resolution shared by every parallel entry point.

``run_sweep``, the campaign runner and the CLI all take a
``jobs`` knob.  The convention is uniform:

- ``None``  → the caller's default (serial unless stated otherwise);
- ``0``     → auto: one job per usable core;
- ``n > 0`` → exactly ``n`` jobs;
- ``n < 0`` → :class:`~repro.errors.UsageError` (previously this fell
  through to the worker processes as a ``ValueError`` traceback).

The native partitioner's thread count is derived, never configured
(:func:`partition_threads`): every usable core in a plain process, and
``max(1, host_cpus() // jobs)`` in each of a sweep's ``jobs`` forked
workers (:func:`worker_threads`), which the supervisor hands to each
worker when it forks it.
"""

from __future__ import annotations

import os

from repro.errors import UsageError

__all__ = [
    "host_cpus",
    "partition_threads",
    "resolve_jobs",
    "set_partition_threads",
    "worker_threads",
]

# The sweep worker's share of the cores; None in a plain process.
_partition_threads: int | None = None


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


def worker_threads(jobs: int) -> int:
    """The partitioner threads of each of ``jobs`` concurrent workers."""
    return max(1, host_cpus() // jobs)


def partition_threads() -> int:
    """The threads the native partitioner may use in this process: the
    share :func:`set_partition_threads` recorded in a sweep worker,
    else every usable core."""
    if _partition_threads is not None:
        return _partition_threads
    return host_cpus()


def set_partition_threads(nthreads: int | None) -> None:
    """Record a forked sweep worker's share of the cores (``None``
    restores the plain-process default).  The partitions do not depend
    on it."""
    global _partition_threads
    _partition_threads = None if nthreads is None else max(1, int(nthreads))
