"""Parallel sweep execution over the compiled task DAG.

:func:`run_sweep` executes a :class:`~repro.sweep.grid.SweepGrid` —
serially, or on a fork-based process pool (``jobs > 1``).  Each
:class:`~repro.sweep.grid.MatrixTask` is one unit of work: the worker
materializes the matrix, builds one :class:`~repro.engine.\
PartitionEngine` (threading the shared :class:`~repro.sweep.cache.\
ArtifactCache` through its ``artifacts`` hook) and walks the task's
cells in DAG order.  Results come back as :class:`CellRecord` lists and
are reassembled in grid order, so the output is byte-for-byte
independent of scheduling.

Determinism guarantees (pinned by the parity tests):

- cell seeds are pure functions of grid coordinates
  (:func:`~repro.sweep.grid.derive_seed`) — no shared RNG;
- tasks share no mutable state; the artifact cache is content-addressed
  and written atomically, so concurrent writers race only toward
  identical bytes;
- ``pool.imap_unordered`` is used purely for scheduling; records are
  re-sorted by task index before return.

Tasks are dispatched largest-first (suite order is ascending nnz, so
dispatch order is reversed) to keep the pool's makespan short.

Tracing: when the caller has a trace open, every task runs under its
own :func:`repro.obs.tracing` block and hands the collected spans and
counters back with its records; the coordinator grafts them under its
current span.  A traced run therefore holds the same span tree at any
``jobs`` — forked workers included — and an untraced run pays one
boolean per task.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.engine import PartitionEngine
from repro.errors import CellExecutionError, UsageError
from repro.hypergraph import PartitionConfig
from repro.jobs import resolve_jobs
from repro.native import resolve_backend
from repro.simulate.machine import MachineModel
from repro.simulate.report import PartitionQuality
from repro.sweep.cache import ArtifactCache
from repro.sweep.grid import MatrixTask, SweepGrid, derive_seed

__all__ = [
    "CellRecord",
    "SweepResult",
    "map_tasks",
    "quality_identical",
    "run_sweep",
]


@dataclass(frozen=True)
class CellRecord:
    """One evaluated grid cell, self-describing and picklable."""

    matrix: str
    scale: str | None
    scheme: str
    k: int
    seed: int
    slot: int
    machine: MachineModel
    quality: PartitionQuality
    from_cache: bool = False
    #: The record's artifact-cache address (None without a cache).
    record_key: str | None = None


@dataclass
class SweepResult:
    """All records of one sweep plus per-engine bookkeeping.

    ``engines`` holds one dict per task — matrix name, seed, the
    engine's :meth:`~repro.engine.PartitionEngine.cache_info` (hits,
    misses, entries and ``cached_bytes`` for memory-pressure logging)
    and the worker's artifact-cache stats.
    """

    records: list[CellRecord]
    engines: list[dict] = field(default_factory=list)

    def get(
        self,
        matrix: str,
        scheme: str,
        k: int,
        *,
        seed: int | None = None,
        machine: MachineModel | None = None,
    ) -> CellRecord:
        """The unique record at the given grid coordinates."""
        hits = [
            r
            for r in self.records
            if r.matrix == matrix
            and r.scheme == scheme
            and r.k == k
            and (seed is None or r.seed == seed)
            and (machine is None or r.machine == machine)
        ]
        if len(hits) != 1:
            raise KeyError(
                f"{len(hits)} records for ({matrix!r}, {scheme!r}, K={k}); "
                "pass seed=/machine= to disambiguate"
            )
        return hits[0]

    def quality(self, matrix: str, scheme: str, k: int, **kw) -> PartitionQuality:
        return self.get(matrix, scheme, k, **kw).quality


def quality_identical(a: PartitionQuality, b: PartitionQuality) -> bool:
    """Bitwise equality of two cell results: every tabulated number,
    the simulated output vector, and the full communication ledger."""
    return bool(
        a.kind == b.kind
        and a.nparts == b.nparts
        and a.load_imbalance == b.load_imbalance
        and a.total_volume == b.total_volume
        and a.avg_msgs == b.avg_msgs
        and a.max_msgs == b.max_msgs
        and a.speedup == b.speedup
        and a.time == b.time
        and np.array_equal(a.run.y, b.run.y)
        and a.run.ledger.phase_names == b.run.ledger.phase_names
        and a.run.ledger.as_dict() == b.run.ledger.as_dict()
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _machine_key(machine: MachineModel) -> tuple:
    return ("machine", machine.alpha, machine.beta, machine.gamma)


def _execute_task(task: MatrixTask, cache_dir, traced: bool):
    """Run one task, under its own trace when ``traced``: returns
    ``(records, info, (root spans, counters) or None)``."""
    if not traced:
        return (*_run_task(task, cache_dir), None)
    with obs.tracing() as tr:
        records, info = _run_task(task, cache_dir)
    return records, info, (tr.spans, tr.counters)


def _run_task(task: MatrixTask, cache_dir) -> tuple[list[CellRecord], dict]:
    """Run every cell of one task through one engine (worker body)."""
    t_start = obs.now()
    cache = ArtifactCache(cache_dir) if cache_dir is not None else None
    engine = PartitionEngine(
        task.ref.materialize(),
        seed=task.seed,
        epsilon=task.epsilon,
        machine=task.machines[0],
        artifacts=cache,
    )
    digest = engine.matrix_digest
    records: list[CellRecord] = []
    with obs.span(
        "sweep.task", matrix=task.name, seed=task.seed, pid=os.getpid()
    ):
        for cell in task.cells:
            with obs.span("sweep.cell", scheme=cell.scheme, k=cell.k):
                try:
                    records.append(
                        _execute_cell(task, engine, cache, digest, cell)
                    )
                except CellExecutionError:
                    raise
                except Exception as exc:
                    # Name the cell before the exception crosses the
                    # pool boundary: a raw pickled traceback from an
                    # 8-matrix grid says nothing about *which*
                    # (matrix, scheme, K, seed) blew up.
                    ident = {
                        "matrix": task.name,
                        "scheme": cell.scheme,
                        "k": cell.k,
                        "seed": task.seed,
                        "slot": cell.slot,
                    }
                    raise CellExecutionError(
                        f"cell (matrix={task.name!r}, scheme={cell.scheme!r},"
                        f" K={cell.k}, seed={task.seed}) failed in task"
                        f" {task.task_index} [pid {os.getpid()}]:"
                        f" {type(exc).__name__}: {exc}",
                        cell=ident,
                        task_index=task.task_index,
                        worker_tb=traceback.format_exc(),
                    ) from exc
    info = {
        "matrix": task.name,
        "seed": task.seed,
        "pid": os.getpid(),
        "task_s": obs.now() - t_start,
        **engine.cache_info(),
    }
    if cache is not None:
        info["artifacts"] = dict(cache.stats)
    return records, info


def _execute_cell(task, engine, cache, digest, cell) -> CellRecord:
    """Plan and evaluate one grid cell (record-cache aware)."""
    machine = task.machines[cell.machine_index]
    config = PartitionConfig(
        epsilon=task.epsilon,
        seed=derive_seed(task.seed, task.matrix_index, cell.slot),
    )
    opts = dict(cell.opts)
    quality = None
    record_key = None
    if cache is not None:
        # Address the record once, without building the plan.
        plan_key = engine.plan_key(cell.scheme, cell.k, config=config, **opts)
        record_key = cache.record_key(digest, plan_key, _machine_key(machine))
        quality = cache.fetch_record_hex(record_key)
    from_cache = quality is not None
    plan = None
    if quality is None:
        plan = engine.plan(cell.scheme, cell.k, config=config, **opts)
        quality = engine.evaluate(plan, machine=machine)
        if cache is not None:
            cache.store_record_hex(record_key, quality)
    if task.compile_plans:
        # Compile even when the record came from the cache: the
        # plan itself is then a cheap artifact fetch, and the
        # CommPlan contract holds regardless of record warmth.
        if plan is None:
            plan = engine.plan(cell.scheme, cell.k, config=config, **opts)
        engine.compiled_plan(plan)
    return CellRecord(
        matrix=task.name,
        scale=task.ref.scale,
        scheme=cell.scheme,
        k=cell.k,
        seed=task.seed,
        slot=cell.slot,
        machine=machine,
        quality=quality,
        from_cache=from_cache,
        record_key=record_key,
    )


def _execute_indexed(args):
    index, task, cache_dir, traced = args
    return index, _execute_task(task, cache_dir, traced)


def _call_indexed(args):
    index, fn, item = args
    return index, fn(item)


# ----------------------------------------------------------------------
# Pool driver
# ----------------------------------------------------------------------


def _fork_context():
    """The fork multiprocessing context, or None where unsupported
    (workers then run serially — results are identical either way)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None  # pragma: no cover - non-POSIX platforms
    return multiprocessing.get_context("fork")


def _pool_map(indexed_call, jobs: int, items: list):
    """Order-restoring parallel map: ``items`` are ``(index, …)``
    tuples, dispatched as given, reassembled by index."""
    results: dict[int, object] = {}
    ctx = _fork_context()
    if jobs <= 1 or len(items) <= 1 or ctx is None:
        for item in items:
            index, value = indexed_call(item)
            results[index] = value
    else:
        with ctx.Pool(processes=min(jobs, len(items))) as pool:
            for index, value in pool.imap_unordered(indexed_call, items, chunksize=1):
                results[index] = value
    return [results[i] for i in sorted(results)]


def _require_picklable(obj, what: str) -> None:
    """Raise :class:`~repro.errors.UsageError` naming ``what`` when
    ``obj`` cannot travel to a pool worker (a lambda, a closure, a
    local class), instead of a pickle traceback from inside the pool."""
    try:
        pickle.dumps(obj)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise UsageError(
            f"{what} cannot be sent to the worker pool (jobs > 1): "
            f"{type(exc).__name__}: {exc}; use a module-level function "
            "or jobs=1"
        ) from exc


def map_tasks(fn, items, *, jobs: int = 1) -> list:
    """Generic orchestrator entry point: apply a picklable ``fn`` to
    every item on the sweep pool, preserving input order.  The property
    tables and the Figure 1 harness route through this, so every
    experiment artifact shares one execution layer.

    ``jobs=0`` means one worker per core; negative values, and an
    unpicklable ``fn`` when more than one worker runs, raise
    :class:`~repro.errors.UsageError`."""
    jobs = resolve_jobs(jobs, what="jobs")
    if jobs > 1:
        _require_picklable(fn, f"map_tasks fn {getattr(fn, '__qualname__', fn)!r}")
    indexed = [(i, fn, item) for i, item in enumerate(items)]
    return _pool_map(_call_indexed, jobs, indexed)


def run_sweep(
    grid: SweepGrid, *, jobs: int = 1, cache_dir=None
) -> SweepResult:
    """Execute a sweep grid; see the module docstring for guarantees.

    ``jobs`` caps the worker processes (1 = in-process serial, 0 = one
    per core; negative raises :class:`~repro.errors.UsageError`);
    ``cache_dir`` enables the persistent artifact cache — cold runs
    write partitions, compiled plans and cell records through it, warm
    reruns are pure cache reads.

    With ``jobs > 1`` the matrix refs must pickle (a
    :class:`~repro.errors.UsageError` names the one that does not), and
    the kernel backend is resolved before the pool forks, so workers
    inherit the loaded native library instead of each loading or
    building it.
    """
    jobs = resolve_jobs(jobs, what="jobs")
    if cache_dir is not None:
        ArtifactCache(cache_dir)  # create the root eagerly (fail fast)
    if jobs > 1:
        for ref in grid.matrices:
            _require_picklable(ref, f"matrix ref {ref.name!r}")
        resolve_backend()
    tasks = grid.tasks()
    traced = obs.active_trace() is not None
    # Largest-first dispatch: suites are ordered by ascending nnz.
    indexed = [(t.task_index, t, cache_dir, traced) for t in reversed(tasks)]
    outcomes = _pool_map(_execute_indexed, jobs, indexed)
    records: list[CellRecord] = []
    engines: list[dict] = []
    for task_records, info, trace in outcomes:
        records.extend(task_records)
        engines.append(info)
        if trace is not None:
            obs.graft(*trace)
    return SweepResult(records=records, engines=engines)
