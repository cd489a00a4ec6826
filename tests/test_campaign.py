"""Crash-safety tests for the campaign runner.

The contract under test (DESIGN.md "Campaign runner"):

- a ``kill -9`` at *any* point loses at most the in-flight cells:
  resume replays the failure history in the lifecycle rows of
  ``cache/artifacts.sqlite``, answers every cell whose record the same
  store holds at its current address with zero recompute, and the
  final records are bit-identical to an unfaulted serial ``run_sweep``;
- a resume whose grid changed scale or machine recomputes what changed:
  no ``done`` row vouches for a record;
- a torn or damaged end of the store's write-ahead log loses at most
  its last commits, never an earlier one without the later ones;
- a store that lost a suffix of its rows, a record payload or the
  whole file resumes bit-identically, recomputing only what is gone;
- transient faults (worker SIGKILL, watchdog timeout) are retried with
  backoff; a cell raising the same exception twice is deterministic
  and is quarantined — the campaign still completes every other cell.

Fault injection is deterministic (:mod:`repro.sweep.faults` keys on
(cell uid, attempt)), so every faulted scenario here replays exactly.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import pickle
import shutil
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.errors import CampaignError, CellExecutionError, ConfigError, UsageError
from repro.experiments.config import ExperimentConfig
from repro.experiments.tables import table_grid
from repro.simulate.machine import MachineModel
from repro.sweep import (
    ArtifactCache,
    Campaign,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    SchemeSpec,
    SweepGrid,
    campaign_status,
    cell_uid,
    quality_identical,
    run_sweep,
    suite_refs,
)
from repro.sweep import cache as cache_mod
from repro.sweep import campaign as campaign_mod
from repro.sweep.cache import read_events

pytestmark = pytest.mark.campaign

_CFG = ExperimentConfig(scale="tiny")


def _grid(nmat: int = 2, *, scale: str = "tiny", machine=None) -> SweepGrid:
    return SweepGrid(
        matrices=suite_refs("table1", scale=scale)[:nmat],
        schemes=(SchemeSpec("1d-rowwise", 0), SchemeSpec("s2d-heuristic", 0)),
        ks=(4,),
        seeds=(42,),
        machine=machine or _CFG.machine,
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
# Lifecycle rows and the store's write-ahead log
# ----------------------------------------------------------------------


def _live_store(root, n=4):
    """A store with ``n`` rows whose writer still holds it open, so
    every row is still in the write-ahead log, as after a crash."""
    cache = ArtifactCache(root)
    for i in range(n):
        cache.append_event({"ev": "x", "n": i})
    return cache


def _crash_copy(src, dst, damage=None):
    """Copy the database and its log as a crash would leave them, with
    ``damage(log_bytes, commit_ends, frame_bytes)`` applied to the log.
    The shared-memory index is not copied: a reader rebuilds it from
    the log, checking every frame's checksum."""
    dst.mkdir()
    db = src / cache_mod.DB_NAME
    shutil.copy(db, dst / cache_mod.DB_NAME)
    log = pathlib.Path(f"{db}-wal").read_bytes()
    frame = 24 + int.from_bytes(log[8:12], "big")  # header + one page
    ends = [
        off + frame
        for off in range(32, len(log) - frame + 1, frame)
        if int.from_bytes(log[off + 4 : off + 8], "big")  # a commit frame
    ]
    if damage is not None:
        log = damage(log, ends, frame)
    pathlib.Path(f"{dst / cache_mod.DB_NAME}-wal").write_bytes(log)


def _flip(log, pos):
    return log[:pos] + bytes([log[pos] ^ 0x40]) + log[pos + 1 :]


def test_journal_roundtrip(tmp_path):
    _live_store(tmp_path)
    assert read_events(tmp_path) == [{"ev": "x", "n": i} for i in range(4)]


def test_journal_missing_file_is_empty_replay(tmp_path):
    assert read_events(tmp_path / "absent") == []
    assert read_events(tmp_path) == []
    assert list(tmp_path.iterdir()) == []  # the read created nothing


@pytest.mark.parametrize("mode", ["truncate", "garbage", "flip"])
def test_journal_damaged_tail_drops_only_the_tail(tmp_path, mode):
    """A torn or damaged end of the write-ahead log loses at most the
    last commit, and later rows append cleanly after the survivors."""
    _live_store(tmp_path / "live")
    damage = {
        "truncate": lambda log, ends, frame: log[: ends[-1] - frame // 2],
        "garbage": lambda log, ends, frame: log + b"deadbeef" * 64,
        "flip": lambda log, ends, frame: _flip(log, ends[-1] - 100),
    }[mode]
    _crash_copy(tmp_path / "live", tmp_path / "crashed", damage)
    kept = [e["n"] for e in read_events(tmp_path / "crashed")]
    assert kept == list(range(len(kept))) and 3 <= len(kept) <= 4
    ArtifactCache(tmp_path / "crashed").append_event({"ev": "x", "n": "after"})
    assert [e["n"] for e in read_events(tmp_path / "crashed")] == [*kept, "after"]


def test_journal_interior_corruption_discards_suffix(tmp_path):
    """The log's frame checksums chain: a bad frame mid-log discards it
    and every later commit, exactly as if the writer had died there."""
    _live_store(tmp_path / "live")
    _crash_copy(
        tmp_path / "live",
        tmp_path / "crashed",
        lambda log, ends, frame: _flip(log, ends[1] - 100),
    )
    assert [e["n"] for e in read_events(tmp_path / "crashed")] == [0]


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


@pytest.mark.parametrize(
    "field, value",
    [("max_attempts", 0), ("max_attempts", -1), ("base", -0.5),
     ("base", math.nan), ("cap", math.inf), ("jitter", -1.0)],
)
def test_retry_policy_refuses_an_out_of_range_field(field, value):
    with pytest.raises(ConfigError, match=field):
        RetryPolicy(**{field: value})


@pytest.mark.parametrize("watchdog", [0.0, -1.0, math.inf, math.nan])
def test_campaign_refuses_a_watchdog_that_is_not_positive(tmp_path, grid, watchdog):
    """A zero watchdog would reap every worker at once and quarantine
    the whole grid; it is refused before the directory is touched."""
    root = tmp_path / "c"
    with pytest.raises(ConfigError, match="watchdog"):
        Campaign(grid, root, jobs=1, watchdog_s=watchdog)
    assert not root.exists()


#: Tiny Table II's campaign identity.  A campaign directory written
#: under these uids resumes only while they stay byte-identical.
TABLE2_TINY_GRID_SIG = "5b0cf6518dddb520"
TABLE2_TINY_FIRST_UIDS = [
    "crystk02:s42:1d-rowwise:K2:m0:slot0",
    "crystk02:s42:finegrain:K2:m0:slot1",
    "crystk02:s42:s2d-heuristic:K2:m0:slot0",
]


def test_table2_grid_signature_and_first_uids_are_pinned(tmp_path):
    camp = Campaign(table_grid(2, ExperimentConfig(scale="tiny")), tmp_path / "c")
    assert camp.grid_sig == TABLE2_TINY_GRID_SIG
    assert camp.cell_uids[:3] == TABLE2_TINY_FIRST_UIDS
    assert len(camp.cell_uids) == 72


# ----------------------------------------------------------------------
# Campaign happy path
# ----------------------------------------------------------------------


def test_cold_campaign_matches_serial_sweep(tmp_path, grid, serial):
    with obs.tracing() as tr:
        result = Campaign(grid, tmp_path, jobs=2).run()
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
        machine=_CFG.machine,
    )
    assert len(grid.tasks()) == 8
    swept = run_sweep(grid, jobs=2, cache_dir=tmp_path / "sweep")
    assert multiprocessing.active_children() == []
    camp = Campaign(grid, tmp_path / "camp", jobs=2).run()
    assert multiprocessing.active_children() == []
    for engines in (swept.engines, camp.engines):
        assert [e["matrix"] for e in engines] == [r.name for r in grid.matrices]
        assert len({e["pid"] for e in engines}) <= 2
    keys = {frozenset(e) for e in swept.engines + camp.engines}
    assert len(keys) == 1
    assert {"matrix", "seed", "pid", "task_s", "artifacts"} <= next(iter(keys))


def test_campaign_on_a_warm_store_still_forks_its_batches(
    tmp_path, grid, serial, monkeypatch
):
    """Crash isolation: a campaign hands every batch to a worker, even
    when its store already holds every record."""
    from multiprocessing.context import ForkProcess

    run_sweep(grid, jobs=1, cache_dir=tmp_path / "cache")
    started = []
    start = ForkProcess.start
    monkeypatch.setattr(
        ForkProcess, "start", lambda self: started.append(self) or start(self)
    )
    result = Campaign(grid, tmp_path, jobs=2).run()
    assert started
    assert result.complete and all(r.from_cache for r in result.records)
    assert os.getpid() not in {e["pid"] for e in result.engines}
    _assert_bit_identical(serial, result)


def test_campaign_run_refuses_existing_progress(tmp_path, grid):
    Campaign(grid, tmp_path, jobs=1, stop_after=1).run()
    with pytest.raises(ConfigError, match="use resume"):
        Campaign(grid, tmp_path, jobs=1).run()


def test_resume_rejects_foreign_grid_journal(tmp_path, grid):
    Campaign(grid, tmp_path, jobs=1, stop_after=1).run()
    with pytest.raises(CampaignError, match="different grid"):
        Campaign(_grid(nmat=1), tmp_path, jobs=1).resume()


def test_duplicate_cell_uids_rejected(grid):
    task = grid.tasks()[0]
    assert len(set(cell_uid(task, c) for c in task.cells)) == len(task.cells)


# ----------------------------------------------------------------------
# kill -9 before / after a done commit, or a destroyed store → resume
# ----------------------------------------------------------------------


def _interrupted_campaign(tmp_path, grid):
    """A campaign aborted after 2 done cells, as a template directory."""
    root = tmp_path / "template"
    res = Campaign(grid, root, jobs=1, stop_after=2).run()
    assert not res.complete
    return root


def _store(root):
    return sqlite3.connect(root / "cache" / cache_mod.DB_NAME, isolation_level=None)


def _rows(root):
    """``(seq, event)`` of every lifecycle row, in commit order."""
    db = _store(root)
    try:
        rows = db.execute("SELECT seq, event FROM events ORDER BY seq").fetchall()
    finally:
        db.close()
    return [(seq, json.loads(text)) for seq, text in rows]


@pytest.mark.parametrize("where", ["before", "torn", "after"])
def test_kill_at_offset_then_resume_is_bit_identical(
    tmp_path, grid, serial, where
):
    template = _interrupted_campaign(tmp_path, grid)
    root = tmp_path / where
    shutil.copytree(template, root)
    if where == "before":
        # The coordinator died before it committed the first done row.
        first_done = min(seq for seq, ev in _rows(root) if ev["ev"] == "done")
        db = _store(root)
        db.execute("DELETE FROM events WHERE seq >= ?", (first_done,))
        db.close()
    elif where == "torn":
        # The store is no database at all (its log went with it: pages
        # still in the write-ahead log would otherwise shadow the file).
        db = root / "cache" / cache_mod.DB_NAME
        for log in ("-wal", "-shm"):
            pathlib.Path(f"{db}{log}").unlink(missing_ok=True)
        db.write_bytes(b"\x00garbage" * 512)

    with obs.tracing() as tr:
        result = Campaign(grid, root, jobs=2).resume()
    assert result.complete
    _assert_bit_identical(serial, result)
    if where == "before":
        # The rows were lost but the records were not: the store
        # answers those cells, never the partitioner.
        assert result.counters["resumed_cells"] == 2
        assert result.counters["cells_from_cache"] == 0
    elif where == "after":
        # The done rows survived: those cells are answered from the
        # store, never recomputed.
        assert result.counters["resumed_cells"] == 2
    else:
        # Not a database: recreated, and the campaign starts over.
        assert tr.total_counters().get("artifact.corrupt", 0) >= 1
        assert result.counters["resumed_cells"] == 0
        assert result.counters["cells_executed"] == len(serial.records)
    assert result.counters["cells_executed"] + result.counters[
        "cells_from_cache"
    ] + result.counters["resumed_cells"] == len(serial.records)


def test_resume_with_wiped_cache_recomputes_bit_identical(
    tmp_path, grid, serial, monkeypatch
):
    """A done cell whose record payload no longer decodes is a corrupt
    entry: it is evicted and the cell is executed again."""
    template = _interrupted_campaign(tmp_path, grid)
    root = tmp_path / "wiped"
    shutil.copytree(template, root)
    key = next(ev["key"] for _seq, ev in _rows(root) if ev["ev"] == "done")
    db = _store(root)
    db.execute("UPDATE artifacts SET payload = ? WHERE key = ?", (b"torn", key))
    db.close()
    corrupt = []
    evict = ArtifactCache._corrupt
    monkeypatch.setattr(
        ArtifactCache, "_corrupt",
        lambda self, k: corrupt.append(k) or evict(self, k),
    )
    result = Campaign(grid, root, jobs=1).resume()
    assert result.complete
    assert corrupt == [key]
    [rec] = [r for r in result.records if r.record_key == key]
    assert not rec.from_cache  # executed, not answered from the store
    _assert_bit_identical(serial, result)


def test_done_rows_follow_their_records_and_started_rows_name_the_worker(
    tmp_path, grid
):
    """After an abort at ``jobs=2`` every ``done`` row's record is in
    the store (the worker commits it before it reports the cell), and
    every ``started`` row carries the pid of the worker that ran it."""
    result = Campaign(grid, tmp_path, jobs=2, stop_after=2).run()
    assert not result.complete
    events = read_events(tmp_path / "cache")
    done = [ev for ev in events if ev["ev"] == "done"]
    started = [ev for ev in events if ev["ev"] == "started"]
    assert len(done) >= 2 and started
    cache = ArtifactCache(tmp_path / "cache")
    for ev in done:
        assert cache.fetch_record_hex(ev["key"]) is not None, ev["cell"]
    for ev in started:
        assert isinstance(ev["pid"], int) and ev["pid"] != os.getpid()


def test_idempotent_resume_zero_recompute(tmp_path, grid, serial):
    root = tmp_path / "c"
    Campaign(grid, root, jobs=2).run()
    with obs.tracing() as tr:
        result = Campaign(grid, root, jobs=1).resume()
    assert result.complete
    assert result.counters["cells_executed"] == 0
    assert result.counters["resumed_cells"] == len(serial.records)
    assert tr.total_counters().get("campaign.resumed_cells") == len(
        serial.records
    )
    _assert_bit_identical(serial, result)


def test_resume_at_another_scale_recomputes_every_cell(tmp_path, grid):
    """Cell uids name no scale, so a tiny campaign's rows replay against
    the same grid at ``small``; no done row vouches for a record, and
    every cell is computed at the scale asked for."""
    root = tmp_path / "c"
    Campaign(grid, root, jobs=2).run()
    small = _grid(scale="small")
    fresh = run_sweep(small, jobs=1)
    result = Campaign(small, root, jobs=2).resume()
    assert result.complete
    assert result.counters["resumed_cells"] == 0
    assert result.counters["cells_executed"] == len(fresh.records)
    assert {r.scale for r in result.records} == {"small"}
    _assert_bit_identical(fresh, result)


def test_resume_under_another_machine_reprices_every_cell(
    tmp_path, grid, serial
):
    """A machine model is no part of a cell uid: a resume under another
    one replays the rows and prices every cell under the new machine.
    The partitions may come from the store; the records may not."""
    root = tmp_path / "c"
    Campaign(grid, root, jobs=1).run()
    machine = MachineModel(alpha=50.0, beta=7.0, gamma=2.0)
    assert machine != _CFG.machine
    other = _grid(machine=machine)
    fresh = run_sweep(other, jobs=1)
    result = Campaign(other, root, jobs=2).resume()
    assert result.complete
    assert result.counters["resumed_cells"] == 0
    assert result.counters["cells_executed"] == other.ncells
    assert {r.machine for r in result.records} == {machine}
    _assert_bit_identical(fresh, result)
    assert any(
        a.quality.time != b.quality.time
        for a, b in zip(serial.records, result.records)
    )


def test_resume_without_a_campaign_creates_nothing(tmp_path, grid):
    """Resuming a directory that holds no store (a typo) is refused
    before anything is created."""
    root = tmp_path / "typo"
    with pytest.raises(ConfigError, match="campaign run") as exc:
        Campaign(grid, root, jobs=1).resume()
    assert str(root) in str(exc.value)
    assert not root.exists()


def test_resume_look_honours_stop_after(tmp_path, grid):
    """The look stops the coordinator after ``stop_after`` answered
    cells, as a batch the coordinator runs does."""
    root = tmp_path / "c"
    Campaign(grid, root, jobs=1).run()
    result = Campaign(grid, root, jobs=2, stop_after=1).resume()
    assert not result.complete
    assert len(result.records) == 1
    assert result.counters["resumed_cells"] == 1
    assert result.counters["cells_executed"] == 0


def test_lowered_budget_does_not_quarantine_a_stored_cell(tmp_path, grid):
    """A cell that failed once and then finished keeps its record when
    a resume lowers the budget below its failures: the store answers it
    before replayed history is judged."""
    uids = _uids(grid)
    plan = FaultPlan(specs=(FaultSpec(kind="raise", cell=uids[0], attempts=(0,)),))
    root = tmp_path / "c"
    first = Campaign(
        grid, root, jobs=1, faults=plan, retry=RetryPolicy(base=0.01, cap=0.05)
    ).run()
    assert first.complete and first.counters["retries"] == 1
    again = Campaign(grid, root, jobs=1, retry=RetryPolicy(max_attempts=1)).resume()
    assert again.complete and not again.failed_cells
    assert again.counters["resumed_cells"] == len(uids)


def test_old_journal_directories_are_refused(tmp_path, grid):
    """A directory holding an older release's ``journal.jsonl`` is
    neither replayed nor overwritten."""
    old = tmp_path / "journal.jsonl"
    old.write_bytes(b'0123456789ab {"cells":4,"ev":"campaign","sig":"x"}\n')
    for call in (
        Campaign(grid, tmp_path, jobs=1).run,
        Campaign(grid, tmp_path, jobs=1).resume,
        lambda: campaign_status(tmp_path),
    ):
        with pytest.raises(UsageError, match="journal.jsonl") as exc:
            call()
        assert "release that wrote it" in str(exc.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["journal.jsonl"]


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
    result = Campaign(grid, root, jobs=2).resume()
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
        grid, tmp_path, jobs=1, faults=plan,
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
        grid, tmp_path, jobs=2, faults=plan,
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
        grid, tmp_path, jobs=1, faults=plan,
        retry=RetryPolicy(base=0.01, cap=0.05),
    ).run()
    assert not result.complete
    assert len(result.records) == len(serial.records) - 1
    [fc] = result.failed_cells
    assert fc.uid == uids[2]
    assert fc.reason == "deterministic"
    assert fc.attempts == 2  # same exception twice → no third try
    assert "FaultInjected" in fc.summary()
    # The failure that quarantined the cell is not a retry.
    assert campaign_status(tmp_path).retries == result.counters["retries"]
    # Quarantine persists across resume: the cell is not retried again.
    again = Campaign(
        grid, tmp_path, jobs=1, faults=plan,
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
        grid, tmp_path, jobs=1, faults=plan,
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
        grid, tmp_path, jobs=1, faults=plan,
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
    machine=cfg.machine,
)
uids = [cell_uid(t, c) for t in grid.tasks() for c in t.cells]
# Stall deterministically at the third cell to run so the parent's
# SIGKILL always lands mid-campaign with two cells committed done.  Tasks
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
    deadline = time.monotonic() + 120.0
    try:
        # Wait until the rows prove two cells completed and the third
        # is in flight (the stall), then kill -9 the coordinator.
        while time.monotonic() < deadline:
            events = read_events(root / "cache")
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
    machine=ExperimentConfig(scale="tiny").machine,
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
        machine=_CFG.machine,
    )
    first = cell_uid(grid.tasks()[1], grid.tasks()[1].cells[0])  # runs first
    script = _ORPHAN_SCRIPT.format(
        src=str((__import__("pathlib").Path(__file__).parent.parent / "src")),
        uid=first,
        root=str(root),
    )
    proc = subprocess.Popen([sys.executable, "-c", script])
    deadline = time.monotonic() + 120.0
    try:
        pid = None
        while pid is None and time.monotonic() < deadline:
            for ev in read_events(root / "cache"):
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
        grid, tmp_path, jobs=1, progress=seen.append
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


def test_status_keeps_computed_durations_across_a_resume(tmp_path, grid):
    """A resume's look writes a done row per answered cell, timing a
    record read; the status still averages the computed durations."""
    Campaign(grid, tmp_path, jobs=1).run()
    before = campaign_status(tmp_path)
    assert Campaign(grid, tmp_path, jobs=1).resume().counters["resumed_cells"] == 4
    assert campaign_status(tmp_path) == before


def test_campaign_status_empty_dir(tmp_path):
    st = campaign_status(tmp_path)
    assert st.total == 0 and st.done == 0
    assert list(tmp_path.iterdir()) == []  # status creates nothing


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
    key = ArtifactCache.record_key("digest", ("plan",), ("machine",))
    cache.store_record_hex(key, {"q": 1})
    db = sqlite3.connect(cache.path, isolation_level=None)
    try:
        db.execute(
            "UPDATE artifacts SET payload = ? WHERE key = ?", (b"not a pickle", key)
        )
        with obs.tracing() as tr:
            assert cache.fetch_record_hex(key) is None
        assert cache.stats["corrupt"] == 1
        counters = tr.total_counters()
        assert counters.get("artifact.corrupt") == 1
        [ev] = [sp for sp in tr.walk() if sp.name == "artifact.corrupt"]
        assert ev.attrs["key"] == key  # the corrupt *key* is named, not just a file
        stored = "SELECT COUNT(*) FROM artifacts WHERE key = ?"
        assert db.execute(stored, (key,)).fetchone() == (0,)  # evicted
    finally:
        db.close()
    # Re-fetch is a clean miss.
    assert cache.fetch_record_hex(key) is None
    assert cache.stats["corrupt"] == 1
