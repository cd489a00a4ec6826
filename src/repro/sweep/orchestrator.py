"""What one sweep task computes, and the one worker body that runs it.

A :class:`~repro.sweep.grid.MatrixTask` is one unit of work: the
worker materializes the matrix, builds one :class:`~repro.engine.\
PartitionEngine` (threading the shared :class:`~repro.sweep.cache.\
ArtifactCache` through its ``artifacts`` hook) and walks the task's
cells in DAG order, each cell yielding one :class:`CellRecord`.
:func:`_run_batch` is that worker body — the only place a sweep builds
an engine.  It reports each cell as ``started`` / ``done`` (with its
record) / ``failed`` (with the worker's traceback) through a message
sink: a pipe end in a forked worker, a list's ``extend`` when the
coordinator runs the batch itself.  Its read-only mode is the
coordinator's look into the record store before it forks: each cell is
addressed and fetched, never planned, simulated or stored.
Scheduling — which worker runs which batch, retries, the watchdog —
lives in :mod:`repro.sweep.campaign`, behind
:func:`~repro.sweep.campaign.run_sweep` and
:class:`~repro.sweep.campaign.Campaign`.

Determinism guarantees (pinned by the parity tests):

- cell seeds are pure functions of grid coordinates
  (:func:`~repro.sweep.grid.derive_seed`) — no shared RNG;
- tasks share no mutable state; the artifact cache is content-addressed,
  so concurrent writers race only toward identical bytes;
- records are reassembled in grid order, so the output is independent
  of scheduling.

Tracing: when the coordinator has a trace open, every batch runs under
its own :func:`repro.obs.tracing` block and hands the collected spans
and counters back with its ``end`` message; the coordinator grafts
them under its current span.  A traced run therefore holds the same
span tree at any ``jobs`` — forked workers included — and an untraced
run pays one boolean per batch.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.engine import PartitionEngine
from repro.hypergraph import PartitionConfig
from repro.simulate.machine import MachineModel
from repro.simulate.report import PartitionQuality
from repro.sweep.cache import ArtifactCache
from repro.sweep.grid import MatrixTask, derive_seed

__all__ = [
    "CellRecord",
    "SweepResult",
    "quality_identical",
]


@dataclass(frozen=True)
class CellRecord:
    """One evaluated grid cell, self-describing and picklable."""

    matrix: str
    scale: str
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
        self, matrix: str, scheme: str, k: int, *, seed: int | None = None
    ) -> CellRecord:
        """The unique record at the given grid coordinates."""
        hits = [
            r
            for r in self.records
            if r.matrix == matrix
            and r.scheme == scheme
            and r.k == k
            and (seed is None or r.seed == seed)
        ]
        if len(hits) != 1:
            raise KeyError(
                f"{len(hits)} records for ({matrix!r}, {scheme!r}, K={k}); "
                "pass seed= to disambiguate"
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


def _exc_fields(exc: BaseException) -> tuple[str, str, str]:
    """``(type name, message, formatted traceback)`` of ``exc``."""
    return (type(exc).__name__, str(exc), "".join(traceback.format_exception(exc)))


def _run_batch(
    task: MatrixTask, items, cache_dir, faults, traced: bool, send, read_only=False
) -> None:
    """Run the cells ``items`` — ``(uid, cell, attempt)`` of one task,
    in DAG order — through one engine, reporting over ``send``.

    Messages: ``("started", uid)``, ``("done", uid, record, seconds)``,
    ``("failed", uid, exc_fields)``, ``("taskfail", exc_fields)`` when
    the matrix or engine cannot be built, and last ``("end", info,
    trace)``: the engine's bookkeeping (None after ``taskfail``) and,
    when ``traced``, the batch's ``(root spans, counters)``.  They go
    out in lists, one ``send`` per cell: a cell's ``started`` travels
    with the previous cell's outcome, the last outcome with ``end``.
    ``faults`` is an optional :class:`~repro.sweep.faults.FaultPlan`
    fired at each cell boundary.  ``read_only`` answers cells from the
    record store only: the batch stops at the first cell without a
    record, with no ``done`` for it and ``end`` carrying no bookkeeping.
    """
    out: list = []
    if not traced:
        info = _run_cells(task, items, cache_dir, faults, out, send, read_only)
        trace = None
    else:
        with obs.tracing() as tr:
            info = _run_cells(task, items, cache_dir, faults, out, send, read_only)
        trace = (tr.spans, tr.counters)
    out.append(("end", info, trace))
    send(out)


def _run_cells(
    task: MatrixTask, items, cache_dir, faults, out, send, read_only
) -> dict | None:
    t_start = obs.now()
    try:
        cache = ArtifactCache(cache_dir) if cache_dir is not None else None
        engine = PartitionEngine(
            task.ref.materialize(),
            seed=task.seed,
            machine=task.machine,
            artifacts=cache,
        )
        digest = engine.matrix_digest
    except Exception as exc:
        out.append(("taskfail", _exc_fields(exc)))
        return None
    with obs.span(
        "sweep.task", matrix=task.name, seed=task.seed, pid=os.getpid()
    ):
        for uid, cell, attempt in items:
            out.append(("started", uid))
            send(out)
            out.clear()
            t0 = obs.now()
            try:
                with obs.span("sweep.cell", scheme=cell.scheme, k=cell.k):
                    if faults is not None:
                        faults.fire(uid, attempt)
                    record = _execute_cell(
                        task, engine, cache, digest, cell, read_only
                    )
            except Exception as exc:
                out.append(("failed", uid, _exc_fields(exc)))
            else:
                if record is None:
                    return None  # not in the store
                out.append(("done", uid, record, obs.now() - t0))
    info = {
        "matrix": task.name,
        "seed": task.seed,
        "pid": os.getpid(),
        "task_s": obs.now() - t_start,
        **engine.cache_info(),
    }
    if cache is not None:
        info["artifacts"] = dict(cache.stats)
    return info


def _execute_cell(
    task, engine, cache, digest, cell, read_only=False
) -> CellRecord | None:
    """Plan and evaluate one grid cell (record-cache aware); None when
    ``read_only`` and the store holds no record of it."""
    machine = task.machine
    config = PartitionConfig(seed=derive_seed(task.seed, task.matrix_index, cell.slot))
    quality = None
    record_key = None
    if cache is not None:
        # Address the record once, without building the plan.
        plan_key = engine.plan_key(cell.scheme, cell.k, config=config)
        record_key = cache.record_key(digest, plan_key, _machine_key(machine))
        quality = cache.fetch_record_hex(record_key)
    from_cache = quality is not None
    if quality is None:
        if read_only:
            return None
        plan = engine.plan(cell.scheme, cell.k, config=config)
        quality = engine.evaluate(plan, machine=machine)
        if cache is not None:
            cache.store_record_hex(record_key, quality)
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
