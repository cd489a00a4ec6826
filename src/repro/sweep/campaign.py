"""Sweep scheduling: :func:`run_sweep` and the crash-safe :class:`Campaign`.

Both run a :class:`~repro.sweep.grid.SweepGrid` on one supervisor.
:func:`run_sweep` is that supervisor with no journal; a
:class:`Campaign` adds durable state, so a worker crash, OOM kill or
host reboot loses at most the in-flight cells:

- **journal** — every cell lifecycle transition (``started`` /
  ``done`` / ``failed`` / ``quarantined``) is an append-only, fsync'd,
  checksummed JSONL event (:mod:`repro.sweep.journal`).  A dispatch
  writes nothing: a cell handed to a worker that dies before its
  ``started`` line is still pending on replay.  The journal is written
  *before* the campaign's in-memory state advances, so ``kill -9`` at
  any byte offset loses at most the in-flight cells.
- **resume** — :meth:`Campaign.resume` replays the journal (recovering
  a torn or corrupted tail first), rehydrates completed cells' records
  from the :class:`~repro.sweep.cache.ArtifactCache` (write-through
  during execution, so it is the source of truth), and re-queues only
  the rest.  Resumed records are bit-identical to an unfaulted serial
  run — the cache stores exact pickles and cell seeds are pure
  functions of grid coordinates.

The supervisor, shared by both:

- **workers** — at most ``min(jobs, tasks)`` long-lived forked worker
  processes, each taking task batches over a duplex pipe and streaming
  per-cell ``started`` / ``done`` / ``failed`` messages back (records
  travel with ``done``); one worker per task at a time, so a task's
  cells share one engine.  Batches are dispatched largest task first
  (suites list their matrices in ascending nnz).  Each worker gets its
  share of the cores for the native partitioner's threads,
  ``max(1, host_cpus() // jobs)`` (:func:`repro.jobs.worker_threads`).
  A plain :func:`run_sweep` at ``jobs=1`` runs the same worker body in
  the coordinator instead; a campaign forks at every ``jobs``, because
  its kill and stall faults need a separate process.
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
``campaign.quarantined`` counters, and a campaign's journal replay and
recovery emit ``journal.*`` events.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from pathlib import Path

from repro import obs
from repro.errors import CampaignError, CellExecutionError, ConfigError, UsageError
from repro.jobs import resolve_jobs, set_partition_threads, worker_threads
from repro.native import resolve_backend
from repro.sweep.cache import ArtifactCache
from repro.sweep.faults import FaultPlan
from repro.sweep.grid import Cell, MatrixTask, SweepGrid
from repro.sweep.journal import Journal
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
    — campaigns with the same faults back off identically.
    """

    max_attempts: int = 3
    base: float = 0.25
    factor: float = 2.0
    cap: float = 10.0
    jitter: float = 0.25

    def backoff(self, attempts: int, uid: str = "") -> float:
        """Delay in seconds after the ``attempts``-th failure."""
        delay = min(self.cap, self.base * self.factor ** max(0, attempts - 1))
        h = int.from_bytes(
            hashlib.sha256(f"{uid}:{attempts}".encode()).digest()[:8], "big"
        )
        return delay * (1.0 + self.jitter * (h / 2.0**64))


def cell_uid(task: MatrixTask, cell: Cell) -> str:
    """Stable identity of one grid cell — a pure function of its
    coordinates, so journal entries address the same cell across
    processes and resumes."""
    uid = (
        f"{task.name}:s{task.seed}:{cell.scheme}:K{cell.k}"
        f":m{cell.machine_index}:slot{cell.slot}"
    )
    if cell.opts:
        uid += ":" + hashlib.sha256(repr(cell.opts).encode()).hexdigest()[:8]
    return uid


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
    timeouts, journal stats).
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


def _require_picklable(obj, what: str) -> None:
    """Raise :class:`~repro.errors.UsageError` naming ``what`` when
    ``obj`` cannot travel to a worker process (a lambda, a closure, a
    local class), instead of a pickle traceback from inside the run."""
    try:
        pickle.dumps(obj)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise UsageError(
            f"{what} cannot be sent to a worker process: "
            f"{type(exc).__name__}: {exc}; use a module-level function "
            "or run_sweep with jobs=1"
        ) from exc


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
    record_key: str | None = None
    from_cache: bool = False
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


class _NoJournal:
    """:func:`run_sweep`'s journal: nothing is made durable."""

    @staticmethod
    def append(event: dict) -> None:
        pass

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
        if self._ctx is not None:
            for ref in grid.matrices:
                _require_picklable(ref, f"matrix ref {ref.name!r}")
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
            "rehydrate_miss": 0,
            "journal_recovered": 0,
        }
        self.engines: list[dict] = []
        self._journal = _NoJournal()
        self._traced = False
        self._ndone = 0
        self._ended: list[tuple[int, dict | None, tuple | None]] = []

    def _run(self) -> CampaignResult:
        return self._finalize(self._supervise())

    # --------------------------------------------------------- execution

    def _supervise(self) -> bool:
        """The coordinator loop; returns True when stop_after aborted."""
        self._traced = obs.active_trace() is not None
        self._ndone = sum(1 for s in self.cells.values() if s.status == "done")
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
        # Largest first: suites list their matrices in ascending nnz.
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
        # Workers inherit the loaded kernel library instead of each
        # loading (or building) it.
        resolve_backend()
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
            self._journal.append(
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
            self._journal.append(
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
            state.record_key = record.record_key
            state.dur = dur
            state.from_cache = record.from_cache
            job.resolved.add(uid)
            if job.current == uid:
                job.current = None
            job.deadline = obs.now() + self.watchdog_s
            if record.from_cache:
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
        self._journal.append(
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
        self._journal.append(
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

    With ``jobs > 1`` the matrix refs must pickle (a
    :class:`~repro.errors.UsageError` names the one that does not), and
    the kernel backend is resolved before the first fork, so workers
    inherit the loaded native library instead of each loading or
    building it.

    A failing cell is retried under the default :class:`RetryPolicy`,
    so a deterministic failure is tried twice (the same exception
    twice quarantines it) before it raises.  After every other cell
    has run, the first quarantined cell in grid order raises
    :class:`~repro.errors.CellExecutionError` naming it, with the
    worker's traceback in ``worker_tb``.
    """
    jobs = resolve_jobs(jobs, what="jobs")
    if cache_dir is not None:
        ArtifactCache(cache_dir)  # create the root eagerly (fail fast)
    sweep = _Supervisor(grid, jobs=jobs, cache_dir=cache_dir, fork=jobs > 1)
    result = sweep._run()
    if result.failed_cells:
        raise sweep._cell_error(result.failed_cells[0])
    return result.sweep


class Campaign(_Supervisor):
    """Supervised, journaled, resumable execution of one sweep grid.

    Parameters
    ----------
    grid:
        The :class:`SweepGrid` to evaluate.
    root:
        Campaign directory: holds ``journal.jsonl`` and the artifact
        cache under ``cache/`` (shared with any other run of the same
        grid — content addressing makes that safe).
    jobs:
        Max concurrent worker processes (``resolve_jobs`` convention).
    retry, watchdog_s, faults:
        Retry policy, per-cell watchdog timeout, optional
        :class:`FaultPlan` (tests/benchmarks).
    fsync:
        Journal durability (default on; tests may disable).
    progress:
        Optional callable receiving a :class:`CampaignStatus` after
        every cell completion/failure.
    stop_after:
        Test/bench harness hook: abruptly stop the coordinator after
        this many cells are ``done`` — *without* any graceful journal
        marker, exactly as a ``kill -9`` of the campaign process would.
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
        fsync: bool = True,
        progress=None,
        stop_after: int | None = None,
        sleep=time.sleep,
    ) -> None:
        self.root = Path(root).expanduser()
        self.fsync = bool(fsync)
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

    # ------------------------------------------------------------- paths

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.jsonl"

    @property
    def cell_uids(self) -> list[str]:
        """All cell uids in deterministic grid order (fault targeting)."""
        return list(self.order)

    # ------------------------------------------------------------ public

    def run(self) -> CampaignResult:
        """Execute from scratch; refuses a journal with prior progress
        (use :meth:`resume` for that — the split keeps an accidental
        re-``run`` from silently reusing half a campaign)."""
        replay = Journal(self.journal_path).replay()
        if any(e.get("ev") != "campaign" for e in replay.events):
            raise ConfigError(
                f"campaign journal {self.journal_path} already has progress; "
                "use resume"
            )
        return self._execute()

    def resume(self) -> CampaignResult:
        """Replay the journal, skip completed cells, finish the rest."""
        return self._execute()

    def status(self) -> CampaignStatus:
        return campaign_status(self.root)

    # ------------------------------------------------------ replay logic

    def _replay_into_state(self, events: list[dict]) -> None:
        open_starts: dict[str, bool] = {}
        for ev in events:
            kind = ev.get("ev")
            if kind == "campaign":
                if ev.get("sig") != self.grid_sig:
                    raise CampaignError(
                        "journal belongs to a different grid "
                        f"(sig {ev.get('sig')} != {self.grid_sig})"
                    )
                continue
            state = self.cells.get(ev.get("cell"))
            if state is None:
                raise CampaignError(
                    f"journal names unknown cell {ev.get('cell')!r}"
                )
            if kind == "started":
                open_starts[state.uid] = True
            elif kind == "done":
                state.status = "done"
                state.record_key = ev.get("key")
                state.dur = float(ev.get("dur", 0.0))
                state.from_cache = bool(ev.get("from_cache", False))
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
            # Older journals also hold a "scheduled" line per dispatch;
            # it carries no state and is skipped.
        # A start with no matching outcome was in flight when the
        # campaign died: charge one transient attempt so a cell that
        # *causes* the crash (e.g. the OOM killer) cannot loop forever
        # across resumes.
        for uid in open_starts:
            state = self.cells[uid]
            if state.status == "pending":
                state.attempts += 1
                state.failures.append(("interrupted", "", ""))

    def _rehydrate(self, cache: ArtifactCache) -> None:
        for state in self.cells.values():
            if state.status != "done":
                continue
            quality = cache.fetch_record_hex(state.record_key)
            if quality is None:
                # Cache loss: the journal says done but the record is
                # gone — recompute rather than fail the resume.
                state.status = "pending"
                state.record_key = None
                self.counters["rehydrate_miss"] += 1
                continue
            task = self.tasks[state.task_index]
            state.record = CellRecord(
                matrix=task.name,
                scale=task.ref.scale,
                scheme=state.cell.scheme,
                k=state.cell.k,
                seed=task.seed,
                slot=state.cell.slot,
                machine=task.machines[state.cell.machine_index],
                quality=quality,
                from_cache=state.from_cache,
                record_key=state.record_key,
            )
            self.counters["resumed_cells"] += 1
            obs.add("campaign.resumed_cells")

    def _execute(self) -> CampaignResult:
        self.root.mkdir(parents=True, exist_ok=True)
        cache = ArtifactCache(self.cache_dir)
        journal = Journal(self.journal_path, fsync=self.fsync)
        replay = journal.recover()
        if replay.damaged:
            self.counters["journal_recovered"] = 1
        obs.event(
            "campaign.replay",
            events=len(replay.events),
            dropped_lines=replay.dropped_lines,
        )
        with obs.span("campaign.run", cells=len(self.order), jobs=self.jobs):
            self._journal = journal
            try:
                self._replay_into_state(replay.events)
                self._rehydrate(cache)
                # The coordinator is done with the store: close its
                # connection so no worker forks while it holds SQLite
                # state (a serial run reopens it on first use).
                cache._disconnect()
                if not replay.events:
                    journal.append(
                        {
                            "ev": "campaign",
                            "cells": len(self.order),
                            "sig": self.grid_sig,
                        }
                    )
                # Quarantine anything whose replayed history already
                # exhausts the policy (e.g. a lowered budget on resume).
                for state in self.cells.values():
                    if state.status == "pending" and state.failures:
                        self._maybe_quarantine(state)
                aborted = self._supervise()
            finally:
                journal.close()
                # Journal cost accounting for the benchmark's
                # journal-overhead acceptance bound.
                self.counters["journal_appends"] = journal.appended
                self.counters["journal_write_s"] = journal.write_s
            return self._finalize(aborted)


# ----------------------------------------------------------------------
# Journal-only status (no grid needed)
# ----------------------------------------------------------------------


def campaign_status(root) -> CampaignStatus:
    """Progress of a campaign directory from its journal alone.

    Works on a live, killed, or finished campaign; ``eta_s`` projects
    the measured average cell duration over the remaining cells
    (serial basis — divide by your job count for a pool estimate).
    """
    from repro.sweep.journal import replay_journal

    replay = replay_journal(Path(root).expanduser() / "journal.jsonl")
    total = 0
    done: dict[str, float] = {}
    quarantined: set = set()
    retries = 0
    for ev in replay.events:
        kind = ev.get("ev")
        if kind == "campaign":
            total = int(ev.get("cells", 0))
        elif kind == "done":
            done[ev.get("cell")] = float(ev.get("dur", 0.0))
        elif kind == "failed":
            retries += 1
        elif kind == "quarantined":
            quarantined.add(ev.get("cell"))
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
