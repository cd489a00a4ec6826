"""Crash-safe, resumable campaign execution of sweep grids.

:func:`~repro.sweep.orchestrator.run_sweep` executes a grid but owns no
durable state: a worker crash, OOM kill or host reboot loses every
in-flight cell and forces a cold restart.  A :class:`Campaign` promotes
the same :class:`~repro.sweep.grid.SweepGrid` into a supervised run
that survives all of those:

- **journal** — every cell lifecycle transition (``scheduled`` /
  ``started`` / ``done`` / ``failed`` / ``quarantined``) is an
  append-only, fsync'd, checksummed JSONL event
  (:mod:`repro.sweep.journal`).  The journal is written *before* the
  campaign's in-memory state advances, so ``kill -9`` at any byte
  offset loses at most the in-flight cells.
- **resume** — :meth:`Campaign.resume` replays the journal (recovering
  a torn or corrupted tail first), rehydrates completed cells' records
  from the :class:`~repro.sweep.cache.ArtifactCache` (write-through
  during execution, so it is the source of truth), and re-queues only
  the rest.  Resumed records are bit-identical to an unfaulted serial
  run — the cache stores exact pickles and cell seeds are pure
  functions of grid coordinates.
- **supervision** — cells run in forked worker processes (one process
  per task batch, streaming per-cell results over a pipe).  A per-task
  watchdog reaps stuck children (``Process.kill`` from the
  coordinator, never a raw signal), marks the in-flight cell
  ``timed_out`` and respawns the worker.
- **retry policy** — transient faults (worker SIGKILL, watchdog
  timeout, interrupted-by-crash) are retried with exponential backoff
  plus deterministic jitter up to a per-cell attempt budget.  A cell
  that raises the *same exception twice* is deterministic and is
  quarantined immediately: it lands in the ``failed_cells`` report and
  the campaign still completes every other cell — graceful
  degradation, never a hung pool or an aborted grid.

Fault injection for tests lives in :mod:`repro.sweep.faults`; the
deterministic :class:`~repro.sweep.faults.FaultPlan` threads through to
workers so a faulted campaign replays exactly.

Observability: the coordinator merges worker-measured cell windows into
the ambient trace as ``campaign.cell`` spans (monotonic clocks are
system-wide, so worker timestamps line up with the coordinator's), and
bumps ``campaign.retries`` / ``campaign.resumed_cells`` /
``campaign.timeouts`` / ``campaign.quarantined`` counters; journal
replay and recovery emit ``journal.*`` events.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from pathlib import Path

from repro import obs
from repro.engine import PartitionEngine
from repro.errors import CampaignError, ConfigError
from repro.hypergraph import PartitionConfig
from repro.jobs import resolve_jobs
from repro.sweep.cache import ArtifactCache
from repro.sweep.faults import FaultPlan
from repro.sweep.grid import Cell, MatrixTask, SweepGrid, derive_seed
from repro.sweep.journal import Journal
from repro.sweep.orchestrator import (
    CellRecord,
    SweepResult,
    _execute_cell,
    _fork_context,
    _machine_key,
)

__all__ = [
    "Campaign",
    "CampaignResult",
    "CampaignStatus",
    "FailedCell",
    "RetryPolicy",
    "campaign_status",
    "cell_uid",
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


def _exc_fields(exc: BaseException) -> tuple[str, str, str]:
    import traceback

    return (
        type(exc).__name__,
        str(exc),
        "".join(traceback.format_exception(type(exc), exc, exc.__traceback__)),
    )


def _campaign_worker(conn, task, items, cache_dir, faults) -> None:
    """One worker batch: stream per-cell outcomes back over ``conn``.

    ``items`` is a list of ``(uid, cell, attempt)`` for one task, in
    DAG order.  The worker materializes the matrix once, runs each cell
    through one engine (record-cache aware, write-through), and sends
    ``started`` / ``done`` / ``failed`` messages as they happen — the
    coordinator journals them, so everything acknowledged here is
    durable before the next cell begins.  Exits via ``os._exit`` like
    every forked worker in this repo (no inherited-teardown noise).
    """
    try:
        try:
            cache = ArtifactCache(cache_dir)
            engine = PartitionEngine(
                task.ref.materialize(),
                seed=task.seed,
                epsilon=task.epsilon,
                machine=task.machines[0],
                artifacts=cache,
            )
            digest = engine.matrix_digest
        except BaseException as exc:
            conn.send(("taskfail", _exc_fields(exc)))
            conn.send(("end", None))
            return
        for uid, cell, attempt in items:
            conn.send(("started", uid))
            t0 = obs.now()
            try:
                if faults is not None:
                    faults.fire(uid, attempt)
                record = _execute_cell(task, engine, cache, digest, cell)
                machine = task.machines[cell.machine_index]
                config = PartitionConfig(
                    epsilon=task.epsilon,
                    seed=derive_seed(task.seed, task.matrix_index, cell.slot),
                )
                plan_key = engine.plan_key(
                    cell.scheme, cell.k, config=config, **dict(cell.opts)
                )
                key_hex = ArtifactCache.record_key(
                    digest, plan_key, _machine_key(machine)
                )
                conn.send(
                    ("done", uid, key_hex, t0, obs.now() - t0, record.from_cache)
                )
            except BaseException as exc:
                conn.send(("failed", uid, t0, obs.now() - t0, _exc_fields(exc)))
        info = {"matrix": task.name, "seed": task.seed, "pid": os.getpid()}
        info.update(engine.cache_info())
        info["artifacts"] = dict(cache.stats)
        conn.send(("end", info))
    except BaseException:  # pragma: no cover - broken pipe: parent died
        pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        os._exit(0)


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
    not_before: float = 0.0
    record_key: str | None = None
    from_cache: bool = False
    dur: float = 0.0
    quarantine_reason: str = ""


@dataclass
class _Job:
    proc: object
    conn: object
    task_index: int
    items: list  # [(uid, cell, attempt), ...]
    deadline: float
    current: str | None = None  # uid of the started-but-unresolved cell
    resolved: set = field(default_factory=set)
    any_message: bool = False
    ended: bool = False
    inline: bool = False  # no-fork fallback: conn is a buffer, not an fd


class Campaign:
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
        self.grid = grid
        self.root = Path(root).expanduser()
        self.jobs = resolve_jobs(jobs, what="jobs")
        self.retry = retry or RetryPolicy()
        self.watchdog_s = float(watchdog_s)
        self.faults = faults
        self.fsync = bool(fsync)
        self.progress = progress
        self.stop_after = stop_after
        self._sleep = sleep
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
        self.grid_sig = hashlib.sha256(
            "\n".join(self.order).encode()
        ).hexdigest()[:16]
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
        self._ctx = _fork_context()
        if self._ctx is None and faults is not None and any(
            s.kind in ("kill", "stall") for s in faults.specs
        ):  # pragma: no cover - non-POSIX platforms
            raise CampaignError(
                "kill/stall fault injection requires a fork-capable platform"
            )

    # ------------------------------------------------------------- paths

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.jsonl"

    @property
    def cache_dir(self) -> Path:
        return self.root / "cache"

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
            else:
                state.quality = quality
                self.counters["resumed_cells"] += 1
                obs.add("campaign.resumed_cells")

    # --------------------------------------------------------- execution

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
            try:
                self._replay_into_state(replay.events)
                self._rehydrate(cache)
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
                        self._maybe_quarantine(state, journal)
                aborted = self._supervise(journal, cache)
            finally:
                journal.close()
                # Journal cost accounting for the benchmark's
                # journal-overhead acceptance bound.
                self.counters["journal_appends"] = journal.appended
                self.counters["journal_write_s"] = journal.write_s
            return self._finalize(cache, aborted)

    def _supervise(self, journal: Journal, cache: ArtifactCache) -> bool:
        """The coordinator loop; returns True when stop_after aborted."""
        running: dict[object, _Job] = {}  # conn -> job
        try:
            while True:
                now = obs.now()
                if self._done_count() == len(self.order):
                    break
                self._dispatch(running, journal, now)
                # In-process fallback jobs buffer their whole batch at
                # spawn time and have no pollable fd: consume them here.
                for conn, job in list(running.items()):
                    if job.inline:  # pragma: no cover - non-POSIX platforms
                        if self._drain(job, journal, cache):
                            return True
                        self._finish_job(job, journal, reason="eof")
                        del running[conn]
                if not running:
                    nb = self._next_not_before()
                    if nb is None:
                        break  # only quarantined cells remain
                    self._sleep(max(0.0, nb - obs.now()))
                    continue
                deadline = min(j.deadline for j in running.values())
                nb = self._next_not_before()
                timeout = deadline - now
                if nb is not None and len(running) < self.jobs:
                    timeout = min(timeout, nb - now)
                ready = connection.wait(
                    list(running), timeout=max(0.0, min(timeout, 60.0))
                )
                for conn in ready:
                    job = running[conn]
                    if self._drain(job, journal, cache):
                        return True  # stop_after hit: simulate kill -9
                    if job.ended or not job.proc.is_alive():
                        self._finish_job(job, journal, reason="eof")
                        del running[conn]
                now = obs.now()
                for conn, job in list(running.items()):
                    if now > job.deadline:
                        # Watchdog: reap the stuck child, mark the
                        # in-flight cell timed out, respawn via requeue.
                        job.proc.kill()
                        job.proc.join()
                        self._drain(job, journal, cache)
                        self.counters["timeouts"] += 1
                        obs.add("campaign.timeouts")
                        self._finish_job(job, journal, reason="timeout")
                        del running[conn]
            return False
        finally:
            for job in running.values():
                if job.proc is not None and job.proc.is_alive():
                    job.proc.kill()
                    job.proc.join()

    # ------------------------------------------------------- dispatching

    def _ready_by_task(self, now: float) -> dict[int, list[_CellState]]:
        ready: dict[int, list[_CellState]] = {}
        for uid in self.order:
            state = self.cells[uid]
            if state.status == "pending" and state.not_before <= now:
                ready.setdefault(state.task_index, []).append(state)
        return ready

    def _dispatch(self, running: dict, journal: Journal, now: float) -> None:
        busy = {j.task_index for j in running.values()}
        ready = self._ready_by_task(now)
        for task_index in sorted(ready):
            if len(running) >= self.jobs:
                break
            if task_index in busy:
                continue  # one worker per task at a time (engine affinity)
            states = sorted(ready[task_index], key=lambda s: s.pos)
            items = []
            for state in states:
                attempt = state.attempts
                journal.append(
                    {"ev": "scheduled", "cell": state.uid, "attempt": attempt},
                )
                state.status = "running"
                items.append((state.uid, state.cell, attempt))
            task = self.tasks[task_index]
            job = self._spawn(task, items)
            running[job.conn] = job

    def _spawn(self, task: MatrixTask, items: list) -> _Job:
        if self._ctx is not None:
            parent, child = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=_campaign_worker,
                args=(child, task, items, str(self.cache_dir), self.faults),
                daemon=True,
            )
            proc.start()
            child.close()
            return _Job(
                proc=proc,
                conn=parent,
                task_index=task.task_index,
                items=items,
                deadline=obs.now() + self.watchdog_s,
            )
        return self._spawn_inprocess(task, items)  # pragma: no cover

    def _spawn_inprocess(self, task, items) -> _Job:  # pragma: no cover
        """No-fork fallback: run the batch synchronously and buffer the
        messages in a queue-like shim (no watchdog, no kill faults)."""

        class _Shim:
            def __init__(self):
                self.msgs: list = []

            def send(self, msg):
                self.msgs.append(msg)

            def close(self):
                pass

            def poll(self):
                return bool(self.msgs)

            def recv(self):
                if not self.msgs:
                    raise EOFError
                return self.msgs.pop(0)

            def fileno(self):
                raise OSError("in-process job has no fd")

        shim = _Shim()
        cache = ArtifactCache(self.cache_dir)
        engine = PartitionEngine(
            task.ref.materialize(),
            seed=task.seed,
            epsilon=task.epsilon,
            machine=task.machines[0],
            artifacts=cache,
        )
        digest = engine.matrix_digest
        for uid, cell, attempt in items:
            shim.send(("started", uid))
            t0 = obs.now()
            try:
                if self.faults is not None:
                    self.faults.fire(uid, attempt)
                record = _execute_cell(task, engine, cache, digest, cell)
                machine = task.machines[cell.machine_index]
                config = PartitionConfig(
                    epsilon=task.epsilon,
                    seed=derive_seed(task.seed, task.matrix_index, cell.slot),
                )
                plan_key = engine.plan_key(
                    cell.scheme, cell.k, config=config, **dict(cell.opts)
                )
                key_hex = ArtifactCache.record_key(
                    digest, plan_key, _machine_key(machine)
                )
                shim.send(
                    ("done", uid, key_hex, t0, obs.now() - t0, record.from_cache)
                )
            except Exception as exc:
                shim.send(("failed", uid, t0, obs.now() - t0, _exc_fields(exc)))
        info = {"matrix": task.name, "seed": task.seed, "pid": os.getpid()}
        info.update(engine.cache_info())
        shim.send(("end", info))

        class _DeadProc:
            pid = os.getpid()

            @staticmethod
            def is_alive():
                return False

            @staticmethod
            def kill():
                pass

            @staticmethod
            def join(timeout=None):
                pass

        return _Job(
            proc=_DeadProc(),
            conn=shim,
            task_index=task.task_index,
            items=items,
            deadline=obs.now() + 1e12,
            inline=True,
        )

    # ---------------------------------------------------- message intake

    def _drain(self, job: _Job, journal: Journal, cache: ArtifactCache) -> bool:
        """Process every buffered message of one job; True = aborted."""
        try:
            while job.conn.poll():
                msg = job.conn.recv()
                job.any_message = True
                if self._handle(job, msg, journal):
                    return True
        except (EOFError, OSError):
            pass
        return False

    def _handle(self, job: _Job, msg: tuple, journal: Journal) -> bool:
        kind = msg[0]
        if kind == "started":
            uid = msg[1]
            state = self.cells[uid]
            journal.append(
                {
                    "ev": "started",
                    "cell": uid,
                    "attempt": state.attempts,
                    "pid": getattr(job.proc, "pid", 0),
                },
            )
            job.current = uid
            job.deadline = obs.now() + self.watchdog_s
            return False
        if kind == "done":
            _, uid, key_hex, t0, dur, from_cache = msg
            state = self.cells[uid]
            journal.append(
                {
                    "ev": "done",
                    "cell": uid,
                    "attempt": state.attempts,
                    "key": key_hex,
                    "dur": dur,
                    "from_cache": from_cache,
                }
            )
            state.status = "done"
            state.record_key = key_hex
            state.dur = dur
            state.from_cache = from_cache
            job.resolved.add(uid)
            if job.current == uid:
                job.current = None
            job.deadline = obs.now() + self.watchdog_s
            obs.record(
                "campaign.cell",
                t0,
                dur,
                cell=uid,
                attempt=state.attempts,
                from_cache=from_cache,
            )
            if from_cache:
                self.counters["cells_from_cache"] += 1
            else:
                self.counters["cells_executed"] += 1
                obs.add("campaign.cells_executed")
            self._report_progress()
            if (
                self.stop_after is not None
                and self._done_count() >= self.stop_after
            ):
                return True
            return False
        if kind == "failed":
            _, uid, t0, dur, (exc_type, exc_msg, tb) = msg
            job.resolved.add(uid)
            if job.current == uid:
                job.current = None
            job.deadline = obs.now() + self.watchdog_s
            self._record_failure(
                self.cells[uid], "raise", exc_type, exc_msg, journal
            )
            self._report_progress()
            return False
        if kind == "taskfail":
            exc_type, exc_msg, tb = msg[1]
            for uid, _cell, _attempt in job.items:
                if uid not in job.resolved:
                    job.resolved.add(uid)
                    self._record_failure(
                        self.cells[uid], "task-raise", exc_type, exc_msg, journal
                    )
            job.current = None
            return False
        if kind == "end":
            if msg[1] is not None:
                self.engines.append(msg[1])
            job.ended = True
            return False
        raise CampaignError(f"unknown worker message {kind!r}")  # pragma: no cover

    def _finish_job(self, job: _Job, journal: Journal, *, reason: str) -> None:
        """Reconcile a job that stopped (end / died / timed out)."""
        job.proc.join()
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
                self._record_failure(state, kind, "", "", journal)
            elif state.status == "running":
                state.status = "pending"  # never started: requeue uncharged
        self._report_progress()

    # ------------------------------------------------------- retry logic

    def _record_failure(
        self, state: _CellState, kind: str, exc_type: str, msg: str,
        journal: Journal,
    ) -> None:
        attempt = state.attempts
        state.attempts += 1
        state.failures.append((kind, exc_type, msg))
        state.status = "pending"
        journal.append(
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
        if not self._maybe_quarantine(state, journal):
            state.not_before = obs.now() + self.retry.backoff(
                state.attempts, state.uid
            )
            self.counters["retries"] += 1
            obs.add("campaign.retries")

    def _maybe_quarantine(self, state: _CellState, journal: Journal) -> bool:
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
        journal.append(
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

    def _done_count(self) -> int:
        return sum(1 for s in self.cells.values() if s.status == "done")

    def _next_not_before(self) -> float | None:
        pending = [
            s.not_before for s in self.cells.values() if s.status == "pending"
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

    def _finalize(self, cache: ArtifactCache, aborted: bool) -> CampaignResult:
        records: list[CellRecord] = []
        failed: list[FailedCell] = []
        for uid in self.order:
            state = self.cells[uid]
            task = self.tasks[state.task_index]
            if state.status == "done":
                quality = getattr(state, "quality", None)
                if quality is None:
                    quality = cache.fetch_record_hex(state.record_key)
                if quality is None:
                    raise CampaignError(
                        f"record for done cell {uid} vanished from the "
                        f"artifact cache at {self.cache_dir}"
                    )
                records.append(
                    CellRecord(
                        matrix=task.name,
                        scale=task.ref.scale,
                        scheme=state.cell.scheme,
                        k=state.cell.k,
                        seed=task.seed,
                        slot=state.cell.slot,
                        machine=task.machines[state.cell.machine_index],
                        quality=quality,
                        from_cache=state.from_cache,
                    )
                )
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
                    )
                )
        complete = not aborted and len(records) == len(self.order)
        return CampaignResult(
            records=records,
            failed_cells=failed,
            counters=dict(self.counters),
            engines=list(self.engines),
            complete=complete,
        )


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
