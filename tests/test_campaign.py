"""Crash-safety tests for the journaled campaign runner.

The contract under test (ISSUE 10 / DESIGN.md "Campaign runner"):

- ``kill -9`` at *any* journal byte offset loses at most the in-flight
  cells: resume replays the journal, rehydrates completed cells from
  the artifact cache with zero recompute, and the final records are
  bit-identical to an unfaulted serial ``run_sweep``;
- torn and checksum-corrupted journal tails are recovered (truncated
  back to the last clean line) instead of poisoning later appends;
- transient faults (worker SIGKILL, watchdog timeout) are retried with
  backoff; a cell raising the same exception twice is deterministic
  and is quarantined — the campaign still completes every other cell.

Fault injection is deterministic (:mod:`repro.sweep.faults` keys on
(cell uid, attempt)), so every faulted scenario here replays exactly.
"""

from __future__ import annotations

import os
import pickle
import shutil
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.errors import CampaignError, CellExecutionError, ConfigError
from repro.experiments.config import ExperimentConfig
from repro.sweep import (
    ArtifactCache,
    Campaign,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    Journal,
    RetryPolicy,
    SchemeSpec,
    SweepGrid,
    campaign_status,
    cell_uid,
    quality_identical,
    replay_journal,
    run_sweep,
    suite_refs,
)
from repro.sweep import cache as cache_mod
from repro.sweep import campaign as campaign_mod
from repro.sweep.faults import corrupt_journal_tail
from repro.sweep.journal import _encode

pytestmark = pytest.mark.campaign

_CFG = ExperimentConfig(scale="tiny")


def _grid(nmat: int = 2) -> SweepGrid:
    return SweepGrid(
        matrices=suite_refs("table1", scale="tiny")[:nmat],
        schemes=(SchemeSpec("1d-rowwise", 0), SchemeSpec("s2d-heuristic", 0)),
        ks=(4,),
        seeds=(42,),
        machines=(_CFG.machine,),
    )


@pytest.fixture(scope="module")
def grid():
    return _grid()


@pytest.fixture(scope="module")
def serial(grid):
    """The unfaulted serial baseline every scenario is compared against."""
    return run_sweep(grid, jobs=1)


def _uids(grid):
    return [cell_uid(t, c) for t in grid.tasks() for c in t.cells]


def _assert_bit_identical(serial, result):
    assert len(result.records) == len(serial.records)
    for a, b in zip(serial.records, result.records):
        assert (a.matrix, a.scheme, a.k, a.seed) == (
            b.matrix, b.scheme, b.k, b.seed,
        )
        assert quality_identical(a.quality, b.quality), (a.matrix, a.scheme)


# ----------------------------------------------------------------------
# Journal mechanics
# ----------------------------------------------------------------------


def test_journal_roundtrip(tmp_path):
    path = tmp_path / "j.jsonl"
    events = [{"ev": "a", "n": i} for i in range(5)]
    with Journal(path, fsync=False) as j:
        for ev in events:
            j.append(ev)
        assert j.appended == 5
    replay = replay_journal(path)
    assert replay.events == events
    assert not replay.damaged
    assert replay.good_bytes == path.stat().st_size


def test_journal_missing_file_is_empty_replay(tmp_path):
    replay = replay_journal(tmp_path / "absent.jsonl")
    assert replay.events == [] and not replay.damaged


@pytest.mark.parametrize("mode", ["truncate", "garbage", "flip"])
def test_journal_damaged_tail_drops_only_the_tail(tmp_path, mode):
    path = tmp_path / "j.jsonl"
    with Journal(path, fsync=False) as j:
        for i in range(4):
            j.append({"ev": "x", "n": i})
    corrupt_journal_tail(path, mode=mode)
    replay = replay_journal(path)
    assert replay.damaged
    # The clean prefix survives intact; only the damaged tail is lost.
    assert 3 <= len(replay.events) <= 4
    assert [e["n"] for e in replay.events] == list(range(len(replay.events)))


def test_journal_recover_truncates_and_appends_cleanly(tmp_path):
    path = tmp_path / "j.jsonl"
    with Journal(path, fsync=False) as j:
        j.append({"ev": "keep"})
        j.append({"ev": "lost"})
    corrupt_journal_tail(path, mode="flip")
    j2 = Journal(path, fsync=False)
    replay = j2.recover()
    assert replay.damaged and [e["ev"] for e in replay.events] == ["keep"]
    assert path.stat().st_size == replay.good_bytes
    j2.append({"ev": "after"})
    j2.close()
    final = replay_journal(path)
    assert not final.damaged
    assert [e["ev"] for e in final.events] == ["keep", "after"]


def test_journal_recover_refused_after_open(tmp_path):
    j = Journal(tmp_path / "j.jsonl", fsync=False)
    j.append({"ev": "x"})
    with pytest.raises(ConfigError):
        j.recover()
    j.close()


def test_journal_interior_corruption_discards_suffix(tmp_path):
    path = tmp_path / "j.jsonl"
    good = _encode({"ev": "a"})
    bad = b"000000000000 {\"ev\":\"b\"}\n"  # wrong checksum, right shape
    path.write_bytes(good + bad + _encode({"ev": "c"}))
    replay = replay_journal(path)
    # Bit rot mid-file: everything from the bad line on is dropped,
    # exactly as if the process had died there.
    assert [e["ev"] for e in replay.events] == ["a"]
    assert replay.dropped_lines == 2


# ----------------------------------------------------------------------
# Fault harness
# ----------------------------------------------------------------------


def test_fault_spec_validates_kind():
    with pytest.raises(ConfigError):
        FaultSpec(kind="explode", cell="x")


def test_fault_plan_addressing():
    plan = FaultPlan(specs=(
        FaultSpec(kind="raise", cell="a", attempts=(1,)),
        FaultSpec(kind="raise", cell="b", attempts=None),
    ))
    assert plan.for_cell("a", 0) is None
    assert plan.for_cell("a", 1).cell == "a"
    for attempt in range(4):
        assert plan.for_cell("b", attempt) is not None
    with pytest.raises(FaultInjected):
        plan.fire("b", 2)
    plan.fire("unlisted", 0)  # no-op


def test_fault_plan_seeded_is_deterministic():
    uids = [f"cell{i}" for i in range(10)]
    a = FaultPlan.seeded(7, uids, nfaults=3)
    b = FaultPlan.seeded(7, uids, nfaults=3)
    assert a == b and len(a.specs) == 3
    assert FaultPlan.seeded(8, uids, nfaults=3) != a


def test_retry_backoff_deterministic_and_bounded():
    pol = RetryPolicy(base=0.25, factor=2.0, cap=10.0, jitter=0.25)
    delays = [pol.backoff(n, "cell") for n in range(1, 10)]
    assert delays == [pol.backoff(n, "cell") for n in range(1, 10)]
    assert all(0 < d <= 10.0 * 1.25 for d in delays)
    assert delays[0] != pol.backoff(1, "other-cell")  # jitter keys on uid


# ----------------------------------------------------------------------
# Campaign happy path
# ----------------------------------------------------------------------


def test_cold_campaign_matches_serial_sweep(tmp_path, grid, serial):
    with obs.tracing() as tr:
        result = Campaign(grid, tmp_path, jobs=2, fsync=False).run()
    assert result.complete and not result.failed_cells
    _assert_bit_identical(serial, result)
    names = [sp.name for sp in tr.walk()]
    assert "sweep.cell" in names
    assert tr.total_counters().get("campaign.cells_executed") == len(
        serial.records
    )


def test_long_lived_workers_and_one_engine_info_shape(tmp_path):
    """Both entry points run an 8-task grid on at most ``jobs`` forked
    workers, reaped before they return, and report the same engine
    bookkeeping keys per task."""
    import multiprocessing

    grid = SweepGrid(
        matrices=suite_refs("table1", scale="tiny"),
        schemes=(SchemeSpec("1d-rowwise", 0),),
        ks=(2,),
        seeds=(42,),
        machines=(_CFG.machine,),
    )
    assert len(grid.tasks()) == 8
    swept = run_sweep(grid, jobs=2, cache_dir=tmp_path / "sweep")
    assert multiprocessing.active_children() == []
    camp = Campaign(grid, tmp_path / "camp", jobs=2, fsync=False).run()
    assert multiprocessing.active_children() == []
    for engines in (swept.engines, camp.engines):
        assert [e["matrix"] for e in engines] == [r.name for r in grid.matrices]
        assert len({e["pid"] for e in engines}) <= 2
    keys = {frozenset(e) for e in swept.engines + camp.engines}
    assert len(keys) == 1
    assert {"matrix", "seed", "pid", "task_s", "artifacts"} <= next(iter(keys))


def test_campaign_run_refuses_existing_progress(tmp_path, grid):
    Campaign(grid, tmp_path, jobs=1, fsync=False, stop_after=1).run()
    with pytest.raises(ConfigError, match="use resume"):
        Campaign(grid, tmp_path, jobs=1, fsync=False).run()


def test_resume_rejects_foreign_grid_journal(tmp_path, grid):
    Campaign(grid, tmp_path, jobs=1, fsync=False, stop_after=1).run()
    with pytest.raises(CampaignError, match="different grid"):
        Campaign(_grid(nmat=1), tmp_path, jobs=1, fsync=False).resume()


def test_duplicate_cell_uids_rejected(grid):
    task = grid.tasks()[0]
    assert len(set(cell_uid(task, c) for c in task.cells)) == len(task.cells)


# ----------------------------------------------------------------------
# kill -9 at three journal offsets × resume → bit-identical
# ----------------------------------------------------------------------


def _interrupted_campaign(tmp_path, grid):
    """A campaign aborted after 2 done cells, as a template directory."""
    root = tmp_path / "template"
    res = Campaign(grid, root, jobs=1, fsync=False, stop_after=2).run()
    assert not res.complete
    return root


def _done_line_span(journal_path):
    """Byte [start, end) of the first ``done`` line in the journal."""
    raw = journal_path.read_bytes()
    offset = 0
    for line in raw.splitlines(keepends=True):
        if b'"ev":"done"' in line:
            return offset, offset + len(line)
        offset += len(line)
    raise AssertionError("no done record in journal")


@pytest.mark.parametrize("where", ["before", "inside", "after"])
def test_kill_at_offset_then_resume_is_bit_identical(
    tmp_path, grid, serial, where
):
    template = _interrupted_campaign(tmp_path, grid)
    root = tmp_path / where
    shutil.copytree(template, root)
    start, end = _done_line_span(root / "journal.jsonl")
    offset = {"before": start, "inside": (start + end) // 2, "after": end}[where]
    corrupt_journal_tail(root / "journal.jsonl", mode="truncate", offset=offset)

    result = Campaign(grid, root, jobs=2, fsync=False).resume()
    assert result.complete
    _assert_bit_identical(serial, result)
    if where == "after":
        # The done record survived the cut: that cell is rehydrated
        # from the cache, never recomputed.
        assert result.counters["resumed_cells"] >= 1
    # Cells whose done record was cut still hit the artifact cache on
    # recompute — the write-through store is the source of truth.
    assert result.counters["cells_executed"] + result.counters[
        "cells_from_cache"
    ] + result.counters["resumed_cells"] == len(serial.records)


def test_resume_with_wiped_cache_recomputes_bit_identical(
    tmp_path, grid, serial
):
    template = _interrupted_campaign(tmp_path, grid)
    root = tmp_path / "wiped"
    shutil.copytree(template, root)
    shutil.rmtree(root / "cache")
    result = Campaign(grid, root, jobs=1, fsync=False).resume()
    assert result.complete
    assert result.counters["rehydrate_miss"] >= 1
    assert result.counters["resumed_cells"] == 0
    _assert_bit_identical(serial, result)


def test_idempotent_resume_zero_recompute(tmp_path, grid, serial):
    root = tmp_path / "c"
    Campaign(grid, root, jobs=2, fsync=False).run()
    with obs.tracing() as tr:
        result = Campaign(grid, root, jobs=1, fsync=False).resume()
    assert result.complete
    assert result.counters["cells_executed"] == 0
    assert result.counters["resumed_cells"] == len(serial.records)
    assert tr.total_counters().get("campaign.resumed_cells") == len(
        serial.records
    )
    _assert_bit_identical(serial, result)


def test_resumed_campaign_forks_without_an_open_store_connection(
    tmp_path, grid, serial, monkeypatch
):
    """Rehydrating done cells reads the store; the coordinator closes its
    connection again before the first worker forks, so no child inherits
    SQLite state."""
    root = tmp_path / "resumed"
    shutil.copytree(_interrupted_campaign(tmp_path, grid), root)
    store = (os.getpid(), str(root / "cache" / cache_mod.DB_NAME))
    held = []
    send_batch = campaign_mod._Supervisor._send_batch

    def spy(self, idle, task, items):
        if not idle:  # the batch goes to a fresh fork
            held.append(store in cache_mod._CONNECTIONS)
        return send_batch(self, idle, task, items)

    monkeypatch.setattr(campaign_mod._Supervisor, "_send_batch", spy)
    result = Campaign(grid, root, jobs=2, fsync=False).resume()
    assert result.complete and result.counters["resumed_cells"] == 2
    assert held and held[0] is False
    _assert_bit_identical(serial, result)


# ----------------------------------------------------------------------
# Faults: kill / raise / stall
# ----------------------------------------------------------------------


def test_worker_sigkill_fault_retries_and_completes(tmp_path, grid, serial):
    uids = _uids(grid)
    plan = FaultPlan(specs=(FaultSpec(kind="kill", cell=uids[1]),))
    result = Campaign(
        grid, tmp_path, jobs=1, fsync=False, faults=plan,
        retry=RetryPolicy(base=0.01, cap=0.05),
    ).run()
    assert result.complete
    assert result.counters["killed"] == 1
    assert result.counters["retries"] >= 1
    _assert_bit_identical(serial, result)


def test_transient_raise_is_retried(tmp_path, grid, serial):
    uids = _uids(grid)
    plan = FaultPlan(specs=(FaultSpec(kind="raise", cell=uids[0], attempts=(0,)),))
    result = Campaign(
        grid, tmp_path, jobs=2, fsync=False, faults=plan,
        retry=RetryPolicy(base=0.01, cap=0.05),
    ).run()
    assert result.complete and result.counters["retries"] == 1
    _assert_bit_identical(serial, result)


def test_deterministic_raise_quarantined_campaign_completes_rest(
    tmp_path, grid, serial
):
    uids = _uids(grid)
    plan = FaultPlan(specs=(FaultSpec(kind="raise", cell=uids[2], attempts=None),))
    result = Campaign(
        grid, tmp_path, jobs=1, fsync=False, faults=plan,
        retry=RetryPolicy(base=0.01, cap=0.05),
    ).run()
    assert not result.complete
    assert len(result.records) == len(serial.records) - 1
    [fc] = result.failed_cells
    assert fc.uid == uids[2]
    assert fc.reason == "deterministic"
    assert fc.attempts == 2  # same exception twice → no third try
    assert "FaultInjected" in fc.summary()
    # Quarantine persists across resume: the cell is not retried again.
    again = Campaign(
        grid, tmp_path, jobs=1, fsync=False, faults=plan,
        retry=RetryPolicy(base=0.01, cap=0.05),
    ).resume()
    assert not again.complete
    assert [f.uid for f in again.failed_cells] == [uids[2]]
    assert again.counters["retries"] == 0


def test_attempt_budget_quarantines_flaky_cell(tmp_path):
    grid = _grid(nmat=1)
    serial = run_sweep(grid, jobs=1)
    uids = _uids(grid)
    # Kill every attempt: transient each time, but the budget caps it.
    plan = FaultPlan(specs=(FaultSpec(kind="kill", cell=uids[0], attempts=None),))
    result = Campaign(
        grid, tmp_path, jobs=1, fsync=False, faults=plan,
        retry=RetryPolicy(max_attempts=2, base=0.01, cap=0.05),
    ).run()
    assert not result.complete
    [fc] = result.failed_cells
    assert fc.uid == uids[0] and fc.reason == "budget" and fc.attempts == 2
    assert len(result.records) == len(serial.records) - 1


def test_watchdog_reaps_stalled_worker(tmp_path, serial, grid):
    uids = _uids(grid)
    plan = FaultPlan(specs=(FaultSpec(kind="stall", cell=uids[1], seconds=60.0),))
    t0 = time.monotonic()
    result = Campaign(
        grid, tmp_path, jobs=1, fsync=False, faults=plan,
        watchdog_s=1.0, retry=RetryPolicy(base=0.01, cap=0.05),
    ).run()
    assert time.monotonic() - t0 < 30.0  # reaped, not waited out
    assert result.complete
    assert result.counters["timeouts"] == 1
    _assert_bit_identical(serial, result)


# ----------------------------------------------------------------------
# Real SIGKILL of the whole campaign process
# ----------------------------------------------------------------------


_KILL_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.experiments.config import ExperimentConfig
from repro.sweep import Campaign, FaultPlan, FaultSpec, SchemeSpec, SweepGrid
from repro.sweep import cell_uid, suite_refs

cfg = ExperimentConfig(scale="tiny")
grid = SweepGrid(
    matrices=suite_refs("table1", scale="tiny")[:2],
    schemes=(SchemeSpec("1d-rowwise", 0), SchemeSpec("s2d-heuristic", 0)),
    ks=(4,),
    seeds=(42,),
    machines=(cfg.machine,),
)
uids = [cell_uid(t, c) for t in grid.tasks() for c in t.cells]
# Stall deterministically at the third cell to run so the parent's
# SIGKILL always lands mid-campaign with two cells journaled done.  Tasks
# run largest first, so the second matrix's cells (uids[2:]) go first.
faults = FaultPlan(specs=(FaultSpec(kind="stall", cell=uids[0], seconds=120.0),))
Campaign(grid, {root!r}, jobs=1, faults=faults, watchdog_s=600.0).run()
"""


def test_sigkill_of_campaign_process_then_resume(tmp_path, grid, serial):
    root = tmp_path / "killed"
    script = _KILL_SCRIPT.format(
        src=str((__import__("pathlib").Path(__file__).parent.parent / "src")),
        root=str(root),
    )
    proc = subprocess.Popen([sys.executable, "-c", script])
    journal = root / "journal.jsonl"
    deadline = time.monotonic() + 120.0
    try:
        # Wait until the journal proves two cells completed and the
        # third is in flight (the stall), then kill -9 the coordinator.
        while time.monotonic() < deadline:
            if journal.exists():
                events = replay_journal(journal).events
                if sum(1 for e in events if e.get("ev") == "done") >= 2:
                    break
            time.sleep(0.05)
        else:
            raise AssertionError("campaign never reached the stalled cell")
        proc.send_signal(signal.SIGKILL)
    finally:
        if proc.poll() is None and proc.returncode is None:
            proc.kill()
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL

    status = campaign_status(root)
    assert status.done >= 2 and status.total == len(serial.records)

    result = Campaign(grid, root, jobs=1).resume()
    assert result.complete
    assert result.counters["resumed_cells"] >= 2
    _assert_bit_identical(serial, result)


_ORPHAN_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.experiments.config import ExperimentConfig
from repro.sweep import Campaign, FaultPlan, FaultSpec, SchemeSpec, SweepGrid
from repro.sweep import cell_uid, suite_refs

grid = SweepGrid(
    matrices=suite_refs("table1", scale="tiny")[:2],
    schemes=(SchemeSpec("1d-rowwise", 0),),
    ks=(4,),
    seeds=(42,),
    machines=(ExperimentConfig(scale="tiny").machine,),
)
uid = {uid!r}
faults = FaultPlan(specs=(FaultSpec(kind="stall", cell=uid, seconds=2.0),))
Campaign(grid, {root!r}, jobs=1, faults=faults, watchdog_s=600.0).run()
"""


def _exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie nobody has reaped yet."""
    try:
        stat = open(f"/proc/{pid}/stat").read()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_worker_exits_after_its_coordinator_is_killed(tmp_path):
    """A worker outlives a SIGKILLed coordinator only until it next
    talks to it: then it sees the pipe close and exits, instead of
    waiting for work forever."""
    root = tmp_path / "orphan"
    grid = SweepGrid(
        matrices=suite_refs("table1", scale="tiny")[:2],
        schemes=(SchemeSpec("1d-rowwise", 0),),
        ks=(4,),
        seeds=(42,),
        machines=(_CFG.machine,),
    )
    first = cell_uid(grid.tasks()[1], grid.tasks()[1].cells[0])  # runs first
    script = _ORPHAN_SCRIPT.format(
        src=str((__import__("pathlib").Path(__file__).parent.parent / "src")),
        uid=first,
        root=str(root),
    )
    proc = subprocess.Popen([sys.executable, "-c", script])
    journal = root / "journal.jsonl"
    deadline = time.monotonic() + 120.0
    try:
        pid = None
        while pid is None and time.monotonic() < deadline:
            if journal.exists():
                for ev in replay_journal(journal).events:
                    if ev.get("ev") == "started" and ev.get("cell") == first:
                        pid = ev["pid"]
            time.sleep(0.02)
        assert pid is not None, "the stalled cell never started"
        proc.send_signal(signal.SIGKILL)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=60)
    while not _exited(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _exited(pid), f"worker {pid} outlived its coordinator"


# ----------------------------------------------------------------------
# Status / progress
# ----------------------------------------------------------------------


def test_campaign_status_and_progress_callback(tmp_path, grid):
    seen = []
    result = Campaign(
        grid, tmp_path, jobs=1, fsync=False, progress=seen.append
    ).run()
    assert result.complete
    assert len(seen) == len(result.records)
    assert seen[-1].done == len(result.records)
    assert seen[-1].pending == 0
    assert seen[0].avg_cell_s > 0
    line = seen[-1].line()
    assert f"[{len(result.records)}/{len(result.records)}]" in line

    st = campaign_status(tmp_path)
    assert st.total == len(result.records) and st.done == st.total
    assert st.eta_s == 0


def test_campaign_status_empty_dir(tmp_path):
    st = campaign_status(tmp_path)
    assert st.total == 0 and st.done == 0


# ----------------------------------------------------------------------
# Satellites: CellExecutionError naming, artifact.corrupt visibility
# ----------------------------------------------------------------------


def _boom(*args, **kwargs):
    raise ValueError("synthetic cell failure")


def test_pool_worker_exception_names_the_cell(monkeypatch, grid):
    from repro.sweep import orchestrator

    monkeypatch.setattr(orchestrator, "_execute_cell", _boom)
    with pytest.raises(CellExecutionError) as ei:
        run_sweep(grid, jobs=1)
    exc = ei.value
    msg = str(exc)
    assert "scheme=" in msg and "K=4" in msg and "seed=42" in msg
    assert exc.cell["scheme"] in ("1d-rowwise", "s2d-heuristic")
    assert exc.task_index is not None
    assert "synthetic cell failure" in exc.worker_tb


def test_pool_worker_exception_survives_fork_pool(monkeypatch, grid):
    from repro.sweep import orchestrator

    monkeypatch.setattr(orchestrator, "_execute_cell", _boom)
    with pytest.raises(CellExecutionError) as ei:
        run_sweep(grid, jobs=2)  # crosses the pool's pickle boundary
    assert ei.value.cell["matrix"]


def test_cell_execution_error_pickle_roundtrip():
    exc = CellExecutionError(
        "boom", cell={"matrix": "m", "k": 4}, task_index=3, worker_tb="tb"
    )
    back = pickle.loads(pickle.dumps(exc))
    assert str(back) == "boom"
    assert back.cell == {"matrix": "m", "k": 4}
    assert back.task_index == 3 and back.worker_tb == "tb"


def test_artifact_cache_corrupt_eviction_is_visible(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_record("digest", ("plan",), ("machine",), {"q": 1})
    key = ArtifactCache.record_key("digest", ("plan",), ("machine",))
    db = sqlite3.connect(cache.path, isolation_level=None)
    try:
        db.execute(
            "UPDATE artifacts SET payload = ? WHERE key = ?", (b"not a pickle", key)
        )
        with obs.tracing() as tr:
            assert cache.fetch_record("digest", ("plan",), ("machine",)) is None
        assert cache.stats["corrupt"] == 1
        counters = tr.total_counters()
        assert counters.get("artifact.corrupt") == 1
        [ev] = [sp for sp in tr.walk() if sp.name == "artifact.corrupt"]
        assert ev.attrs["key"] == key  # the corrupt *key* is named, not just a file
        stored = "SELECT COUNT(*) FROM artifacts WHERE key = ?"
        assert db.execute(stored, (key,)).fetchone() == (0,)  # evicted
    finally:
        db.close()
    # Re-fetch is a clean miss, and rehydration shares the same address.
    assert cache.fetch_record_hex(key) is None
    assert cache.stats["corrupt"] == 1
