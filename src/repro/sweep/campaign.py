"""Sweep scheduling: :func:`run_sweep` and the crash-safe :class:`Campaign`.

Both run a :class:`~repro.sweep.grid.SweepGrid` on one supervisor.
:func:`run_sweep` is that supervisor with no durable state; a
:class:`Campaign` adds it, so a worker crash, OOM kill or host reboot
loses at most the in-flight cells:

- **lifecycle rows** — every cell lifecycle transition (``started`` /
  ``done`` / ``failed`` / ``quarantined``) is one row of the
  ``events`` table in the campaign's ``cache/artifacts.sqlite``,
  committed by one autocommitted ``INSERT`` through
  :class:`~repro.sweep.cache.ArtifactCache` before the campaign's
  in-memory state advances.  A dispatch writes nothing: a cell handed
  to a worker that dies before its ``started`` row is still pending on
  replay.  Records and rows share one write-ahead log: a worker
  commits a cell's record before it reports ``done``, and the
  coordinator commits the ``done`` row only after that report, so no
  recovered database holds a ``done`` row without its record.
- **resume** — :meth:`Campaign.resume` replays the rows in commit
  order for the cells' failure history only, then answers every cell
  the record store holds at its current address (the warm look below)
  and runs the rest.  A ``done`` row names no record that resume
  reads, so a grid at another scale, machine or release recomputes
  what changed.  Resumed records are bit-identical to an unfaulted
  serial run — the cache stores exact pickles and cell seeds are pure
  functions of grid coordinates.

The supervisor, shared by both:

- **workers** — at most ``min(jobs, tasks)`` long-lived forked worker
  processes, each taking task batches over a duplex pipe and streaming
  per-cell ``started`` / ``done`` / ``failed`` messages back (records
  travel with ``done``); one worker per task at a time, so a task's
  cells share one engine.  Batches are dispatched by descending suite
  index, which is not size order: before it materializes a task, the
  coordinator does not know its size.  Each worker gets its
  share of the cores for the native partitioner's threads,
  ``max(1, host_cpus() // jobs)`` (:func:`repro.jobs.worker_threads`).
  A plain :func:`run_sweep` at ``jobs=1`` runs the same worker body in
  the coordinator instead; a campaign forks at every ``jobs``, because
  its kill and stall faults need a separate process.
- **warm tasks** — a :func:`run_sweep` at ``jobs > 1`` on a cache root
  whose database already existed, and every :meth:`Campaign.resume`,
  first run that body read-only in the coordinator, and a task whose
  every cell has a record is done there; only the other tasks reach a
  worker, so a fully warm rerun forks nothing.  A fresh root holds no
  record and skips this step, and so does :meth:`Campaign.run`, which
  hands every batch to a worker.
- **watchdog** — while a worker holds a batch, a deadline reset by each
  of its messages; an expired worker is reaped (``Process.kill`` from
  the coordinator, never a raw signal), its in-flight cell marked
  ``timeout``, and a fresh worker forked for the next batch.
- **retry policy** — transient faults (worker SIGKILL, watchdog
  timeout, interrupted-by-crash) are retried with exponential backoff
  plus deterministic jitter up to a per-cell attempt budget.  A cell
  that raises the *same exception twice* is deterministic and is
  quarantined immediately: it lands in the ``failed_cells`` report and
  the run still completes every other cell — graceful degradation,
  never a hung pool or an aborted grid.  :func:`run_sweep` then raises
  :class:`~repro.errors.CellExecutionError` for the first quarantined
  cell.

Fault injection for tests lives in :mod:`repro.sweep.faults`; the
deterministic :class:`~repro.sweep.faults.FaultPlan` threads through to
workers so a faulted campaign replays exactly.

Observability: workers trace their batches when the coordinator has a
trace open and the coordinator grafts the ``sweep.task`` /
``sweep.cell`` trees back (:mod:`repro.sweep.orchestrator`); it bumps
``campaign.cells_executed`` / ``campaign.retries`` /
``campaign.resumed_cells`` / ``campaign.timeouts`` /
``campaign.quarantined`` counters.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from pathlib import Path

from repro import obs
from repro.errors import CampaignError, CellExecutionError, ConfigError, UsageError
from repro.jobs import resolve_jobs, set_partition_threads, worker_threads
from repro.native import require_kernels
from repro.sweep.cache import DB_NAME, ArtifactCache, read_events
from repro.sweep.faults import FaultPlan
from repro.sweep.grid import Cell, MatrixTask, SweepGrid
from repro.sweep.orchestrator import CellRecord, SweepResult, _run_batch

__all__ = [
    "Campaign",
    "CampaignResult",
    "CampaignStatus",
    "FailedCell",
    "RetryPolicy",
    "campaign_status",
    "cell_uid",
    "run_sweep",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Per-cell retry budget and backoff shape.

    ``max_attempts`` caps total tries per cell (failures beyond it
    quarantine the cell).  Backoff before attempt *n* (n ≥ 2) is
    ``base * factor**(n-2)`` capped at ``cap``, scaled by a
    deterministic jitter in ``[1, 1+jitter)`` derived from the cell uid
    — campaigns with the same faults back off identically.  A
    ``max_attempts`` below 1, or a negative or non-finite ``base``,
    ``cap`` or ``jitter``, raises :class:`~repro.errors.ConfigError`.
    """

    max_attempts: int = 3
    base: float = 0.25
    factor: float = 2.0
    cap: float = 10.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be at least 1, got {self.max_attempts!r}"
            )
        for name in ("base", "cap", "jitter"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"retry {name} must be finite and nonnegative, got {value!r}"
                )

    def backoff(self, attempts: int, uid: str = "") -> float:
        """Delay in seconds after the ``attempts``-th failure."""
        delay = min(self.cap, self.base * self.factor ** max(0, attempts - 1))
        h = int.from_bytes(
            hashlib.sha256(f"{uid}:{attempts}".encode()).digest()[:8], "big"
        )
        return delay * (1.0 + self.jitter * (h / 2.0**64))


def cell_uid(task: MatrixTask, cell: Cell) -> str:
    """Stable identity of one grid cell — a pure function of its
    coordinates, so lifecycle rows address the same cell across
    processes and resumes.  The ``m0`` component is fixed text: it
    numbered the machine when a grid could hold several, and keeping
    it lets a campaign directory of that time resume."""
    return f"{task.name}:s{task.seed}:{cell.scheme}:K{cell.k}:m0:slot{cell.slot}"


#: Failure kinds considered transient (retried up to the budget).
#: ``raise`` failures are transient *once*: repeating the same
#: exception is deterministic and quarantines immediately.
_TRANSIENT_KINDS = frozenset({"killed", "timeout", "interrupted", "task-raise"})


@dataclass
class FailedCell:
    """One quarantined cell in the campaign's degradation report."""

    uid: str
    matrix: str
    scheme: str
    k: int
    seed: int
    attempts: int
    reason: str  # "deterministic" | "budget"
    failures: list = field(default_factory=list)  # (kind, exc_type, msg)
    worker_tb: str = ""  # traceback of the last failure that raised

    def summary(self) -> str:
        last = self.failures[-1] if self.failures else ("?", "", "")
        return (
            f"{self.uid}: quarantined after {self.attempts} attempt(s) "
            f"[{self.reason}] last={last[0]}"
            + (f" {last[1]}: {last[2]}" if last[1] else "")
        )


@dataclass
class CampaignStatus:
    """Progress snapshot (CLI ``campaign status`` / progress callback)."""

    total: int
    done: int
    quarantined: int
    pending: int
    running: int
    retries: int
    avg_cell_s: float
    eta_s: float

    def line(self) -> str:
        eta = f"{self.eta_s:.0f}s" if self.eta_s > 0 else "-"
        return (
            f"[{self.done}/{self.total}] done"
            + (f" quarantined={self.quarantined}" if self.quarantined else "")
            + (f" retries={self.retries}" if self.retries else "")
            + f" avg={self.avg_cell_s * 1e3:.0f}ms/cell eta={eta}"
        )


@dataclass
class CampaignResult:
    """Everything a finished (or aborted) campaign produced.

    ``records`` hold the completed cells in grid order;
    ``failed_cells`` the quarantined ones; ``complete`` is True iff
    every grid cell is done (no pending, no quarantined).  ``counters``
    carries the robustness bookkeeping (retries, resumed cells,
    timeouts, lifecycle-row commit stats).
    """

    records: list[CellRecord]
    failed_cells: list[FailedCell] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    engines: list[dict] = field(default_factory=list)
    complete: bool = True

    @property
    def sweep(self) -> SweepResult:
        """The records as a :class:`SweepResult` (``get``/``quality``)."""
        return SweepResult(records=list(self.records), engines=list(self.engines))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _worker_loop(
    conn, coordinator_end, cache_dir, faults, traced: bool, nthreads: int
) -> None:
    """A forked worker: run ``(task, items)`` batches from ``conn``
    until the coordinator sends ``None`` or goes away, partitioning on
    ``nthreads`` threads (its share of the cores).  Exits via
    ``os._exit`` like every forked worker in this repo (no
    inherited-teardown noise)."""
    # The fork copied the coordinator's end of the pipe too; holding it
    # would hide the coordinator's death (no EOF, no broken pipe).
    coordinator_end.close()
    set_partition_threads(nthreads)
    try:
        for task, items in iter(conn.recv, None):
            _run_batch(task, items, cache_dir, faults, traced, conn.send)
    except (EOFError, OSError):
        pass  # the coordinator is gone
    finally:
        os._exit(0)


def _fork_context():
    """The fork multiprocessing context, or None where unsupported
    (batches then run in the coordinator — results are identical)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None  # pragma: no cover - non-POSIX platforms
    return multiprocessing.get_context("fork")


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


@dataclass
class _CellState:
    uid: str
    task_index: int
    pos: int
    cell: Cell
    status: str = "pending"  # pending | running | done | quarantined
    attempts: int = 0  # failures charged so far
    failures: list = field(default_factory=list)  # (kind, exc_type, msg)
    worker_tb: str = ""
    not_before: float = 0.0
    record: CellRecord | None = None
    dur: float = 0.0
    quarantine_reason: str = ""


@dataclass
class _Worker:
    proc: object
    conn: object  # the coordinator's end of a duplex pipe


@dataclass
class _Job:
    """One batch: the ready cells of one task, on one worker."""

    task_index: int
    items: list  # [(uid, cell, attempt), ...]
    deadline: float
    worker: _Worker | None = None  # None: runs in the coordinator
    current: str | None = None  # uid of the started-but-unresolved cell
    resolved: set = field(default_factory=set)
    any_message: bool = False
    ended: bool = False
    eof: bool = False  # the worker died
    look: bool = False  # the coordinator's read-only look into the store


class _Supervisor:
    """The sweep's one scheduler: dispatch, workers, watchdog, retries.

    ``fork`` asks for worker processes; without it (or without a
    fork-capable platform) every batch runs in the coordinator.
    """

    def __init__(
        self,
        grid: SweepGrid,
        *,
        jobs: int,
        cache_dir,
        fork: bool,
        retry: RetryPolicy | None = None,
        watchdog_s: float = 300.0,
        faults: FaultPlan | None = None,
        progress=None,
        stop_after: int | None = None,
        sleep=time.sleep,
    ) -> None:
        if not (math.isfinite(watchdog_s) and watchdog_s > 0):
            raise ConfigError(
                f"watchdog must be a finite number of seconds > 0, got {watchdog_s!r}"
            )
        self.grid = grid
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.retry = retry or RetryPolicy()
        self.watchdog_s = float(watchdog_s)
        self.faults = faults
        self.progress = progress
        self.stop_after = stop_after
        self._sleep = sleep
        self._ctx = _fork_context() if fork else None
        if fork and self._ctx is None and faults is not None and any(
            s.kind in ("kill", "stall") for s in faults.specs
        ):  # pragma: no cover - non-POSIX platforms
            raise CampaignError(
                "kill/stall fault injection requires a fork-capable platform"
            )
        self.tasks = grid.tasks()
        self.cells: dict[str, _CellState] = {}
        self.order: list[str] = []
        for task in self.tasks:
            for pos, cell in enumerate(task.cells):
                uid = cell_uid(task, cell)
                if uid in self.cells:
                    raise ConfigError(f"duplicate campaign cell uid {uid!r}")
                self.cells[uid] = _CellState(
                    uid=uid, task_index=task.task_index, pos=pos, cell=cell
                )
                self.order.append(uid)
        self.counters: dict[str, float] = {
            "retries": 0,
            "resumed_cells": 0,
            "quarantined": 0,
            "timeouts": 0,
            "killed": 0,
            "cells_executed": 0,
            "cells_from_cache": 0,
            "journal_appends": 0,
            "journal_write_s": 0.0,
        }
        self.engines: list[dict] = []
        # A campaign's store for lifecycle rows; run_sweep has none.
        self._rows: ArtifactCache | None = None
        self._traced = False
        self._ndone = 0
        self._ended: list[tuple[int, dict | None, tuple | None]] = []

    def _run(self, *, look: bool) -> CampaignResult:
        """Answer what the store holds when ``look`` and the run will
        fork, quarantine what replayed history already exhausts, then
        supervise the rest."""
        if look and self._ctx is not None and self._answer_from_store():
            return self._finalize(True)
        # Quarantine anything whose replayed history already exhausts
        # the policy (e.g. a lowered budget on resume).
        for state in self.cells.values():
            if state.status == "pending" and state.failures:
                self._maybe_quarantine(state)
        return self._finalize(self._supervise())

    # --------------------------------------------------------- execution

    def _supervise(self) -> bool:
        """The coordinator loop; returns True when stop_after aborted."""
        self._traced = obs.active_trace() is not None
        running: dict[object, _Job] = {}  # worker conn -> job
        idle: list[_Worker] = []
        stopping: list[_Worker] = []  # told to exit, not yet joined
        try:
            # Running batches are waited out: their ``end`` carries the
            # engine bookkeeping and the trace.
            while running or self._ndone < len(self.order):
                now = obs.now()
                if self._dispatch(running, idle, now):
                    return True
                nb = None  # the next retry due on a free worker
                if len(running) < self.jobs:
                    nb = self._next_not_before({j.task_index for j in running.values()})
                if not running:
                    if nb is None:
                        break  # only quarantined cells remain
                    self._sleep(max(0.0, nb - obs.now()))
                    continue
                timeout = min(j.deadline for j in running.values()) - now
                if nb is not None:
                    timeout = min(timeout, nb - now)
                ready = connection.wait(
                    list(running), timeout=max(0.0, min(timeout, 60.0))
                )
                for conn in ready:
                    job = running[conn]
                    if self._drain(job):
                        return True  # stop_after hit: simulate kill -9
                    if job.eof or job.ended:
                        del running[conn]
                        self._finish_job(job, reason="eof")
                        if job.eof:
                            self._retire(job.worker)
                        elif self._next_not_before() is None:
                            # Nothing left to hand out: let it exit while
                            # the others finish.
                            self._stop(job.worker)
                            stopping.append(job.worker)
                        else:
                            idle.append(job.worker)
                now = obs.now()
                for conn, job in list(running.items()):
                    if now > job.deadline:
                        # Watchdog: reap the stuck worker, mark the
                        # in-flight cell timed out, requeue the rest.
                        job.worker.proc.kill()
                        job.worker.proc.join()
                        self._drain(job)
                        self._retire(job.worker)
                        self.counters["timeouts"] += 1
                        obs.add("campaign.timeouts")
                        self._finish_job(job, reason="timeout")
                        del running[conn]
            return False
        finally:
            for job in running.values():
                job.worker.proc.kill()
            for worker in idle:
                self._stop(worker)
            for worker in [*stopping, *idle, *(j.worker for j in running.values())]:
                self._retire(worker)

    def _dispatch(self, running: dict, idle: list, now: float) -> bool:
        """Start a batch for every ready task that may run now; True =
        stop_after aborted an in-coordinator batch."""
        if len(running) >= self.jobs:
            return False
        busy = {j.task_index for j in running.values()}
        ready = self._ready_by_task(now)
        # Descending suite index (not size: a cold task's size is
        # unknown until a worker materializes its matrix).
        for task_index in sorted(ready, reverse=True):
            if len(running) >= self.jobs:
                break
            if task_index in busy:
                continue  # one worker per task at a time (engine affinity)
            items = []
            for state in ready[task_index]:
                state.status = "running"
                items.append((state.uid, state.cell, state.attempts))
            job = _Job(task_index, items, deadline=now + self.watchdog_s)
            task = self.tasks[task_index]
            if self._ctx is None:
                if self._run_inline(job, task):
                    return True
                continue
            job.worker = self._send_batch(idle, task, items)
            running[job.worker.conn] = job
        return False

    def _answer_from_store(self) -> bool:
        """Mark done, from the record store, every task whose pending
        cells all have records, before any worker forks; True =
        stop_after aborted.

        The batch body runs in the coordinator in its read-only mode:
        it materializes the matrix and builds the engine, then
        addresses and fetches each cell, but never plans, simulates or
        stores.  A task with a miss, or whose look raised, keeps none
        of the look's messages and goes to a worker whole, so its
        failures, retries and bookkeeping are those of a sweep without
        the look.  The cells it answers are a campaign's resumed cells.
        """
        traced = obs.active_trace() is not None
        for task_index, states in self._ready_by_task(obs.now()).items():
            items = [(s.uid, s.cell, s.attempts) for s in states]
            msgs: list = []
            _run_batch(
                self.tasks[task_index], items, self.cache_dir, None, traced,
                msgs.extend, read_only=True,
            )
            if sum(msg[0] == "done" for msg in msgs) < len(items):
                continue
            job = _Job(task_index, items, deadline=math.inf, look=True)
            if any(self._handle(job, msg) for msg in msgs):
                return True
        if self._ndone < len(self.order):
            # Workers will fork: close this process's connection first,
            # so they inherit no SQLite state.
            ArtifactCache(self.cache_dir)._disconnect()
        return False

    def _run_inline(self, job: _Job, task: MatrixTask) -> bool:
        """Run one batch in the coordinator; True = stop_after hit."""
        msgs: list = []
        _run_batch(
            task, job.items, self.cache_dir, self.faults, self._traced, msgs.extend
        )
        if any(self._handle(job, msg) for msg in msgs):
            return True
        self._finish_job(job, reason="end")
        return False

    def _send_batch(self, idle: list, task: MatrixTask, items: list) -> _Worker:
        """Hand a batch to an idle worker, or to a fresh fork."""
        while idle:
            worker = idle.pop()
            try:
                worker.conn.send((task, items))
                return worker
            except OSError:  # it died while idle
                worker.proc.kill()
                self._retire(worker)
        # Workers inherit the loaded kernel library, which every
        # partition needs, instead of each loading (or building) it.
        require_kernels()
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(
                child, parent, self.cache_dir, self.faults, self._traced,
                worker_threads(self.jobs),
            ),
            daemon=True,
        )
        proc.start()
        child.close()
        parent.send((task, items))
        return _Worker(proc, parent)

    @staticmethod
    def _stop(worker: _Worker) -> None:
        try:
            worker.conn.send(None)
        except OSError:  # already gone
            worker.proc.kill()

    @staticmethod
    def _retire(worker: _Worker) -> None:
        worker.proc.join()
        worker.conn.close()

    # ---------------------------------------------------- message intake

    def _append(self, event: dict) -> None:
        """Commit one lifecycle row, timing the commit for the
        benchmark's overhead bound; nothing when there is no store."""
        if self._rows is None:
            return
        t0 = obs.now()
        self._rows.append_event(event)
        self.counters["journal_appends"] += 1
        self.counters["journal_write_s"] += obs.now() - t0

    def _drain(self, job: _Job) -> bool:
        """Process every buffered message of a job whose pipe is
        readable or whose worker is dead; True = aborted."""
        msgs: list = []
        try:
            msgs.extend(job.worker.conn.recv())
            while job.worker.conn.poll():
                msgs.extend(job.worker.conn.recv())
        except (EOFError, OSError):
            job.eof = True
        job.any_message |= bool(msgs)
        return any(self._handle(job, msg) for msg in msgs)

    def _handle(self, job: _Job, msg: tuple) -> bool:
        kind = msg[0]
        if kind == "started":
            uid = msg[1]
            self._append(
                {
                    "ev": "started",
                    "cell": uid,
                    "attempt": self.cells[uid].attempts,
                    "pid": job.worker.proc.pid if job.worker else os.getpid(),
                },
            )
            job.current = uid
            job.deadline = obs.now() + self.watchdog_s
            return False
        if kind == "done":
            _, uid, record, dur = msg
            state = self.cells[uid]
            self._append(
                {
                    "ev": "done",
                    "cell": uid,
                    "attempt": state.attempts,
                    "key": record.record_key,
                    "dur": dur,
                    "from_cache": record.from_cache,
                }
            )
            state.status = "done"
            self._ndone += 1
            state.record = record
            state.dur = dur
            job.resolved.add(uid)
            if job.current == uid:
                job.current = None
            job.deadline = obs.now() + self.watchdog_s
            if job.look and self._rows is not None:
                # A campaign's look answered it: a resumed cell.
                self.counters["resumed_cells"] += 1
                obs.add("campaign.resumed_cells")
            elif record.from_cache:
                self.counters["cells_from_cache"] += 1
            else:
                self.counters["cells_executed"] += 1
                obs.add("campaign.cells_executed")
            self._report_progress()
            return self.stop_after is not None and self._ndone >= self.stop_after
        if kind == "failed":
            _, uid, (exc_type, exc_msg, tb) = msg
            job.resolved.add(uid)
            if job.current == uid:
                job.current = None
            job.deadline = obs.now() + self.watchdog_s
            self.cells[uid].worker_tb = tb
            self._record_failure(self.cells[uid], "raise", exc_type, exc_msg)
            self._report_progress()
            return False
        if kind == "taskfail":
            exc_type, exc_msg, tb = msg[1]
            for uid, _cell, _attempt in job.items:
                if uid not in job.resolved:
                    job.resolved.add(uid)
                    self.cells[uid].worker_tb = tb
                    self._record_failure(
                        self.cells[uid], "task-raise", exc_type, exc_msg
                    )
            job.current = None
            return False
        if kind == "end":
            _, info, trace = msg
            self._ended.append((job.task_index, info, trace))
            job.ended = True
            return False
        raise CampaignError(f"unknown worker message {kind!r}")  # pragma: no cover

    def _finish_job(self, job: _Job, *, reason: str) -> None:
        """Reconcile a job that stopped (end / died / timed out)."""
        unresolved = [it for it in job.items if it[0] not in job.resolved]
        if job.ended:
            # Graceful end: everything should be resolved; anything
            # left (defensive) goes back to pending uncharged.
            for uid, _cell, _attempt in unresolved:
                state = self.cells[uid]
                if state.status == "running":
                    state.status = "pending"
            return
        kind = "timeout" if reason == "timeout" else "killed"
        victim = job.current
        if victim is None and not job.any_message and unresolved:
            # The worker died before reaching any cell (e.g. killed
            # during matrix materialization): charge the first queued
            # cell so a crash-inducing task cannot respawn forever.
            victim = unresolved[0][0]
        if kind == "killed":
            self.counters["killed"] += 1
        for uid, _cell, _attempt in unresolved:
            state = self.cells[uid]
            if uid == victim:
                self._record_failure(state, kind, "", "")
            elif state.status == "running":
                state.status = "pending"  # never started: requeue uncharged
        self._report_progress()

    # ------------------------------------------------------- retry logic

    def _record_failure(
        self, state: _CellState, kind: str, exc_type: str, msg: str
    ) -> None:
        attempt = state.attempts
        state.attempts += 1
        state.failures.append((kind, exc_type, msg))
        state.status = "pending"
        self._append(
            {
                "ev": "failed",
                "cell": state.uid,
                "attempt": attempt,
                "kind": kind,
                "exc": exc_type,
                "msg": msg,
            }
        )
        obs.event(
            "campaign.cell.failed", cell=state.uid, kind=kind, exc=exc_type
        )
        if not self._maybe_quarantine(state):
            state.not_before = obs.now() + self.retry.backoff(
                state.attempts, state.uid
            )
            self.counters["retries"] += 1
            obs.add("campaign.retries")

    def _maybe_quarantine(self, state: _CellState) -> bool:
        """Apply the quarantine rules to a just-failed pending cell."""
        raise_sigs = [
            (e, m) for k, e, m in state.failures if k not in _TRANSIENT_KINDS
        ]
        deterministic = len(raise_sigs) >= 2 and len(set(raise_sigs)) < len(
            raise_sigs
        )
        over_budget = state.attempts >= self.retry.max_attempts
        if not (deterministic or over_budget):
            return False
        state.status = "quarantined"
        state.quarantine_reason = "deterministic" if deterministic else "budget"
        self._append(
            {
                "ev": "quarantined",
                "cell": state.uid,
                "attempts": state.attempts,
                "reason": state.quarantine_reason,
            }
        )
        self.counters["quarantined"] += 1
        obs.add("campaign.quarantined")
        return True

    # -------------------------------------------------------- accounting

    def _ready_by_task(self, now: float) -> dict[int, list[_CellState]]:
        ready: dict[int, list[_CellState]] = {}
        for uid in self.order:
            state = self.cells[uid]
            if state.status == "pending" and state.not_before <= now:
                ready.setdefault(state.task_index, []).append(state)
        return ready

    def _next_not_before(self, busy=frozenset()) -> float | None:
        """Earliest retry time of a pending cell whose task is not busy."""
        pending = [
            s.not_before
            for s in self.cells.values()
            if s.status == "pending" and s.task_index not in busy
        ]
        return min(pending) if pending else None

    def _report_progress(self) -> None:
        if self.progress is not None:
            self.progress(self._status_snapshot())

    def _status_snapshot(self) -> CampaignStatus:
        done = [s for s in self.cells.values() if s.status == "done"]
        quarantined = sum(
            1 for s in self.cells.values() if s.status == "quarantined"
        )
        running = sum(1 for s in self.cells.values() if s.status == "running")
        pending = len(self.order) - len(done) - quarantined - running
        durs = [s.dur for s in done if s.dur > 0]
        avg = sum(durs) / len(durs) if durs else 0.0
        return CampaignStatus(
            total=len(self.order),
            done=len(done),
            quarantined=quarantined,
            pending=pending,
            running=running,
            retries=int(self.counters["retries"]),
            avg_cell_s=avg,
            eta_s=avg * (pending + running) / max(1, self.jobs),
        )

    def _finalize(self, aborted: bool) -> CampaignResult:
        records: list[CellRecord] = []
        failed: list[FailedCell] = []
        for uid in self.order:
            state = self.cells[uid]
            task = self.tasks[state.task_index]
            if state.status == "done":
                records.append(state.record)
            elif state.status == "quarantined":
                failed.append(
                    FailedCell(
                        uid=uid,
                        matrix=task.name,
                        scheme=state.cell.scheme,
                        k=state.cell.k,
                        seed=task.seed,
                        attempts=state.attempts,
                        reason=state.quarantine_reason,
                        failures=list(state.failures),
                        worker_tb=state.worker_tb,
                    )
                )
        # Task order, not completion order: the output does not depend
        # on scheduling.
        for _index, info, trace in sorted(self._ended, key=lambda e: e[0]):
            if info is not None:
                self.engines.append(info)
            if trace is not None:
                obs.graft(*trace)
        complete = not aborted and len(records) == len(self.order)
        return CampaignResult(
            records=records,
            failed_cells=failed,
            counters=dict(self.counters),
            engines=list(self.engines),
            complete=complete,
        )

    def _cell_error(self, failed: FailedCell) -> CellExecutionError:
        """The error :func:`run_sweep` raises for a quarantined cell."""
        state = self.cells[failed.uid]
        kind, exc_type, msg = failed.failures[-1]
        return CellExecutionError(
            f"cell (matrix={failed.matrix!r}, scheme={failed.scheme!r},"
            f" K={failed.k}, seed={failed.seed}) failed in task"
            f" {state.task_index} after {failed.attempts} attempt(s):"
            + (f" {exc_type}: {msg}" if exc_type else f" {kind}"),
            cell={
                "matrix": failed.matrix,
                "scheme": failed.scheme,
                "k": failed.k,
                "seed": failed.seed,
                "slot": state.cell.slot,
            },
            task_index=state.task_index,
            worker_tb=failed.worker_tb,
        )


def run_sweep(
    grid: SweepGrid, *, jobs: int = 1, cache_dir=None
) -> SweepResult:
    """Execute a sweep grid; records come back in grid order,
    bit-identical at any ``jobs``.

    ``jobs`` caps the worker processes (1 = the coordinator runs every
    batch itself, 0 = one per core; negative raises
    :class:`~repro.errors.UsageError`); ``cache_dir`` enables the
    persistent artifact cache — cold runs write partitions, compiled
    plans and cell records through it, warm reruns are pure cache
    reads.

    The coordinator answers cached cells itself at any ``jobs``.  With
    ``jobs > 1`` and a ``cache_dir`` whose database existed before the
    call, it reads each task's records before it forks (materializing
    the matrix, building the engine and addressing each cell); a task
    with every record is done without a worker, so a fully warm rerun
    forks nothing.  A database this call creates holds no record, so a
    cold sweep skips that look and runs exactly as without it.  The
    look materializes every task serially in the coordinator: 5–9 ms
    for a whole tiny suite, 10–16 ms at ``small`` and 26–43 ms at
    ``medium``, plus 2–6 ms of engines and digests, less than forking
    and warming the workers (measured on 2 vCPUs; a larger scale must
    measure it again).

    With ``jobs > 1`` the kernel backend is resolved before the first
    fork, so workers inherit the loaded native library instead of each
    loading or building it.

    A failing cell is retried under the default :class:`RetryPolicy`,
    so a deterministic failure is tried twice (the same exception
    twice quarantines it) before it raises.  After every other cell
    has run, the first quarantined cell in grid order raises
    :class:`~repro.errors.CellExecutionError` naming it, with the
    worker's traceback in ``worker_tb``.
    """
    jobs = resolve_jobs(jobs, what="jobs")
    # Create the root eagerly (fail fast); a fresh database holds no record.
    warm = cache_dir is not None and not ArtifactCache(cache_dir).created
    sweep = _Supervisor(grid, jobs=jobs, cache_dir=cache_dir, fork=jobs > 1)
    result = sweep._run(look=warm)
    if result.failed_cells:
        raise sweep._cell_error(result.failed_cells[0])
    return result.sweep


class Campaign(_Supervisor):
    """Supervised, resumable execution of one sweep grid with durable
    lifecycle rows.

    Parameters
    ----------
    grid:
        The :class:`SweepGrid` to evaluate.
    root:
        Campaign directory: holds the artifact cache under ``cache/``,
        whose ``artifacts.sqlite`` also holds the lifecycle rows (the
        records may be shared with any other run of the same grid —
        content addressing makes that safe).
    jobs:
        Max concurrent worker processes (``resolve_jobs`` convention).
    retry, watchdog_s, faults:
        Retry policy, per-cell watchdog timeout in seconds (finite and
        > 0, else :class:`~repro.errors.ConfigError` before anything is
        created), optional :class:`FaultPlan` (tests/benchmarks).
    progress:
        Optional callable receiving a :class:`CampaignStatus` after
        every cell completion/failure.
    stop_after:
        Test/bench harness hook: abruptly stop the coordinator after
        this many cells are ``done`` — *without* any graceful marker
        row, exactly as a ``kill -9`` of the campaign process would.

    The coordinator closes its connection to the store before its
    first workers fork, then holds one while it supervises (it commits
    the rows), so a worker forked later — a replacement for a dead or
    reaped one — inherits that connection open.  The worker never uses
    or closes it (connections are keyed by pid) and leaves through
    ``os._exit``.

    A ``root`` holding a ``journal.jsonl`` of an older release is
    refused with :class:`~repro.errors.UsageError`.
    """

    def __init__(
        self,
        grid: SweepGrid,
        root,
        *,
        jobs: int = 1,
        retry: RetryPolicy | None = None,
        watchdog_s: float = 300.0,
        faults: FaultPlan | None = None,
        progress=None,
        stop_after: int | None = None,
        sleep=time.sleep,
    ) -> None:
        self.root = Path(root).expanduser()
        super().__init__(
            grid,
            jobs=resolve_jobs(jobs, what="jobs"),
            cache_dir=self.root / "cache",
            fork=True,
            retry=retry,
            watchdog_s=watchdog_s,
            faults=faults,
            progress=progress,
            stop_after=stop_after,
            sleep=sleep,
        )
        self.grid_sig = hashlib.sha256(
            "\n".join(self.order).encode()
        ).hexdigest()[:16]

    @property
    def cell_uids(self) -> list[str]:
        """All cell uids in deterministic grid order (fault targeting)."""
        return list(self.order)

    # ------------------------------------------------------------ public

    def run(self) -> CampaignResult:
        """Execute from scratch; refuses a campaign with prior progress
        (use :meth:`resume` for that — the split keeps an accidental
        re-``run`` from silently reusing half a campaign)."""
        return self._execute(fresh=True)

    def resume(self) -> CampaignResult:
        """Replay the rows' failure history, answer every cell the
        record store holds at its current address, run the rest.

        A ``root`` without a store raises
        :class:`~repro.errors.ConfigError` before anything is created:
        there is no campaign to resume.
        """
        return self._execute(fresh=False)

    def status(self) -> CampaignStatus:
        return campaign_status(self.root)

    # ------------------------------------------------------ replay logic

    def _replay_into_state(self, events: list[dict]) -> None:
        """Restore each cell's failure history from the rows: its
        attempts and failures, the charge for an interrupted start and
        its quarantine.  A ``done`` row only closes its start; whether
        the cell is done is the record store's answer."""
        open_starts: dict[str, bool] = {}
        for ev in events:
            kind = ev.get("ev")
            if kind == "campaign":
                if ev.get("sig") != self.grid_sig:
                    raise CampaignError(
                        "campaign rows belong to a different grid "
                        f"(sig {ev.get('sig')} != {self.grid_sig})"
                    )
                continue
            state = self.cells.get(ev.get("cell"))
            if state is None:
                raise CampaignError(
                    f"campaign rows name unknown cell {ev.get('cell')!r}"
                )
            if kind == "started":
                open_starts[state.uid] = True
            elif kind == "done":
                open_starts.pop(state.uid, None)
            elif kind == "failed":
                state.attempts += 1
                state.failures.append(
                    (ev.get("kind", "?"), ev.get("exc", ""), ev.get("msg", ""))
                )
                open_starts.pop(state.uid, None)
            elif kind == "quarantined":
                state.status = "quarantined"
                state.quarantine_reason = ev.get("reason", "budget")
        # A start with no matching outcome was in flight when the
        # campaign died: charge one transient attempt so a cell that
        # *causes* the crash (e.g. the OOM killer) cannot loop forever
        # across resumes.
        for uid in open_starts:
            state = self.cells[uid]
            if state.status == "pending":
                state.attempts += 1
                state.failures.append(("interrupted", "", ""))

    def _execute(self, *, fresh: bool) -> CampaignResult:
        _refuse_old_journal(self.root)
        if not fresh and not (self.cache_dir / DB_NAME).exists():
            raise ConfigError(
                f"no campaign to resume under {self.root}: start one with "
                "`campaign run`"
            )
        events = read_events(self.cache_dir)
        if fresh and any(e.get("ev") != "campaign" for e in events):
            raise ConfigError(
                f"campaign {self.root} already has progress; use resume"
            )
        cache = ArtifactCache(self.cache_dir)
        obs.event("campaign.replay", events=len(events))
        with obs.span("campaign.run", cells=len(self.order), jobs=self.jobs):
            self._rows = cache
            self._replay_into_state(events)
            if not events:
                self._append(
                    {"ev": "campaign", "cells": len(self.order), "sig": self.grid_sig}
                )
            # Close the coordinator's connection so the first workers
            # fork without SQLite state; the next row reopens it.
            cache._disconnect()
            # A fresh campaign forks every batch; a resume first answers
            # from the store what it holds.
            return self._run(look=not fresh)


# ----------------------------------------------------------------------
# Status from the lifecycle rows alone (no grid needed)
# ----------------------------------------------------------------------


def _refuse_old_journal(root: Path) -> None:
    """Refuse a campaign directory written by a release that kept its
    lifecycle in a JSONL journal file."""
    old = root / "journal.jsonl"
    if old.exists():
        raise UsageError(
            f"{old} is a campaign journal of an older release: finish "
            "that campaign with the release that wrote it, or start a "
            "new directory"
        )


def campaign_status(root) -> CampaignStatus:
    """Progress of a campaign directory from its lifecycle rows alone.

    Reads through a read-only connection, so it creates nothing and
    works on a live, killed or finished campaign; a directory without
    a store reports ``total == 0``.  ``eta_s`` projects the measured
    average cell duration over the remaining cells (serial basis —
    divide by your job count for a pool estimate).
    """
    root = Path(root).expanduser()
    _refuse_old_journal(root)
    total = 0
    done: dict[str, float] = {}
    quarantined: set = set()
    retries = 0
    last: dict[str, str] = {}  # cell -> kind of its latest row
    for ev in read_events(root / "cache"):
        kind, cell = ev.get("ev"), ev.get("cell")
        if kind == "campaign":
            total = int(ev.get("cells", 0))
        elif kind == "done":
            # A resume writes a second done row for every cell its look
            # answers, timing a record read: keep the first duration.
            done.setdefault(cell, float(ev.get("dur", 0.0)))
        elif kind == "failed":
            retries += 1
        elif kind == "quarantined":
            quarantined.add(cell)
            if last.get(cell) == "failed":
                retries -= 1  # that failure quarantined the cell
        last[cell] = kind
    durs = [d for d in done.values() if d > 0]
    avg = sum(durs) / len(durs) if durs else 0.0
    pending = max(0, total - len(done) - len(quarantined))
    return CampaignStatus(
        total=total,
        done=len(done),
        quarantined=len(quarantined),
        pending=pending,
        running=0,
        retries=retries,
        avg_cell_s=avg,
        eta_s=avg * pending,
    )
