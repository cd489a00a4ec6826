"""The sweep grid compiler and parallel orchestrator.

Fast tests cover grid compilation (axes, DAG ordering, deterministic
seed derivation) and serial execution semantics; the slow-marked smoke
test runs a tiny grid on a two-worker fork pool and asserts parity
with the serial records — the bit-identity guarantee the table harness
relies on — and checks that a traced pool run merges every worker's
spans back into the caller's trace.
"""

from collections import Counter

import pytest

from repro import obs
from repro.errors import ConfigError, UsageError
from repro.experiments import ExperimentConfig
from repro.experiments.tables import run_table2
from repro.jobs import host_cpus, resolve_jobs
from repro.simulate.machine import MachineModel
from repro.sweep import (
    MatrixRef,
    SchemeSpec,
    SweepGrid,
    derive_seed,
    quality_identical,
    run_sweep,
    suite_refs,
)


def _tiny_grid(names=("crystk02", "trdheim"), ks=(2,), **kw):
    return SweepGrid(
        matrices=suite_refs("table1", "tiny", names=names),
        schemes=(
            SchemeSpec("1d-rowwise", slot=0),
            SchemeSpec("s2d-heuristic", slot=0),
        ),
        ks=ks,
        **kw,
    )


# ----------------------------------------------------------------------
# Grid compilation
# ----------------------------------------------------------------------


def test_grid_axes_and_cell_count():
    grid = _tiny_grid(ks=(2, 4), seeds=(1, 2), machines=(MachineModel(), MachineModel(alpha=1)))
    assert grid.ncells == 2 * 2 * 2 * 2 * 2
    tasks = grid.tasks()
    assert len(tasks) == 4  # matrices x seeds
    assert all(len(t.cells) == 8 for t in tasks)  # schemes x ks x machines
    assert [t.task_index for t in tasks] == [0, 1, 2, 3]


def test_grid_dag_orders_base_schemes_first():
    grid = SweepGrid(
        matrices=suite_refs("table4", "tiny", names=("boyd2",)),
        schemes=(
            SchemeSpec("s2d-bounded", slot=0),
            SchemeSpec("s2d-heuristic", slot=0),
            SchemeSpec("1d-rowwise", slot=0),
        ),
        ks=(2,),
    )
    (task,) = grid.tasks()
    order = [c.scheme for c in task.cells]
    assert order.index("1d-rowwise") < order.index("s2d-heuristic")
    assert order.index("s2d-heuristic") < order.index("s2d-bounded")


def test_grid_validation():
    with pytest.raises(ConfigError):
        SweepGrid(matrices=(), schemes=(SchemeSpec("1d"),), ks=(2,))
    with pytest.raises(ConfigError):
        _tiny_grid(ks=(2,), seeds=())
    with pytest.raises(ConfigError):
        SweepGrid(
            matrices=suite_refs("table1", "tiny"),
            schemes=(SchemeSpec("no-such-scheme"),),
            ks=(2,),
        )
    with pytest.raises(ConfigError):
        suite_refs("table9", "tiny")
    with pytest.raises(ConfigError):
        suite_refs("table1", "tiny", names=("nope",))


def test_scheme_aliases_resolve():
    grid = _tiny_grid(names=("crystk02",))
    assert SchemeSpec("s2d").canonical == "s2d-heuristic"
    (task,) = grid.tasks()
    assert {c.scheme for c in task.cells} == {"1d-rowwise", "s2d-heuristic"}


def test_restricted_grid_matches_full_table_seeds(tmp_path):
    """A names-restricted grid derives the same per-matrix seeds as the
    full suite, so its cells reproduce the table rows and share cache
    artifacts with a full-table run."""
    full = SweepGrid(
        matrices=suite_refs("table1", "tiny"),
        schemes=(SchemeSpec("1d-rowwise"),),
        ks=(2,),
    )
    res_full = run_sweep(full, cache_dir=tmp_path)
    only = suite_refs("table1", "tiny", names=("trdheim",))
    assert only[0].seed_index == 2  # trdheim's position in the full suite
    restricted = SweepGrid(
        matrices=only, schemes=(SchemeSpec("1d-rowwise"),), ks=(2,)
    )
    res = run_sweep(restricted, cache_dir=tmp_path)
    (rec,) = res.records
    assert rec.from_cache  # same cache address as the full-table cell
    assert quality_identical(
        rec.quality, res_full.quality("trdheim", "1d-rowwise", 2)
    )


def test_derive_seed_is_pure_and_disjoint():
    assert derive_seed(42, 0, 0) == 42
    assert derive_seed(42, 3, 2) == 74
    seen = {derive_seed(42, mi, slot) for mi in range(8) for slot in range(4)}
    assert len(seen) == 32  # matrices own disjoint seed decades


# ----------------------------------------------------------------------
# Orchestrator semantics (serial)
# ----------------------------------------------------------------------


def test_sweep_records_and_lookup():
    grid = _tiny_grid()
    res = run_sweep(grid)
    assert len(res.records) == grid.ncells
    rec = res.get("crystk02", "s2d-heuristic", 2)
    assert rec.quality.nparts == 2
    assert rec.scale == "tiny"
    with pytest.raises(KeyError):
        res.get("crystk02", "s2d-heuristic", 99)
    # engine bookkeeping: one entry per task, with memory pressure
    assert len(res.engines) == 2
    for info in res.engines:
        assert info["cached_bytes"] > 0
        assert info["task_s"] > 0


def test_sweep_shares_slot_vector_partitions():
    """s2D cells reuse the 1D hypergraph run of the same slot — the
    engine-affinity contract the tables rely on."""
    res = run_sweep(_tiny_grid(names=("crystk02",)))
    (info,) = res.engines
    assert info["hits"] > 0  # the s2D build fetched the memoized 1D plan


def test_machine_axis_reprices_not_repartitions():
    cheap = MachineModel(alpha=1.0, beta=1.0, gamma=1.0)
    dear = MachineModel(alpha=1000.0, beta=3.0, gamma=1.0)
    grid = _tiny_grid(names=("crystk02",), machines=(cheap, dear))
    res = run_sweep(grid)
    q_cheap = res.quality("crystk02", "1d-rowwise", 2, machine=cheap)
    q_dear = res.quality("crystk02", "1d-rowwise", 2, machine=dear)
    # same partition and traffic, different pricing
    assert q_cheap.total_volume == q_dear.total_volume
    assert q_cheap.time != q_dear.time


# ----------------------------------------------------------------------
# Jobs resolution
# ----------------------------------------------------------------------


def test_resolve_jobs():
    assert resolve_jobs(None, default=7) == 7
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == host_cpus()
    with pytest.raises(UsageError, match="--jobs"):
        resolve_jobs(-1, what="--jobs")


def test_worker_threads_share_the_host(monkeypatch):
    """Each of ``jobs`` sweep workers partitions on ``max(1, host_cpus()
    // jobs)`` threads; a plain process on every usable core."""
    import repro.jobs as jobs

    monkeypatch.setattr(jobs, "host_cpus", lambda: 8)
    assert [jobs.worker_threads(j) for j in (1, 2, 3, 4, 8, 16)] == [8, 4, 2, 2, 1, 1]
    assert jobs.partition_threads() == 8
    jobs.set_partition_threads(3)
    try:
        assert jobs.partition_threads() == 3
    finally:
        jobs.set_partition_threads(None)
    assert jobs.partition_threads() == 8


def test_supervisor_hands_each_worker_its_thread_share(monkeypatch):
    """The supervisor derives a forked worker's thread count from its
    own ``jobs`` when it forks, and passes it to the worker."""
    import repro.sweep.campaign as campaign

    shares = []
    monkeypatch.setattr(campaign, "worker_threads", lambda jobs: shares.append(jobs) or 1)
    run_sweep(_tiny_grid(), jobs=2)
    assert shares == [2, 2]


def test_run_sweep_rejects_negative_jobs():
    # Jobs are validated before the grid is touched, so a malformed
    # request fails fast without building any task.
    with pytest.raises(UsageError):
        run_sweep(None, jobs=-2)


def test_pool_path_resolves_backend_before_forking(monkeypatch):
    """run_sweep resolves the kernel backend in the parent before its
    first fork, so forked workers inherit the loaded library instead of
    each loading it; at jobs=1 nothing forks and nothing is pre-loaded."""
    from multiprocessing.context import ForkProcess

    import repro.sweep.campaign as campaign

    calls = []
    monkeypatch.setattr(campaign, "resolve_backend", lambda: calls.append("resolve"))
    start = ForkProcess.start
    monkeypatch.setattr(
        ForkProcess, "start", lambda self: calls.append("fork") or start(self)
    )
    run_sweep(_tiny_grid(), jobs=2)
    assert calls[0] == "resolve" and "fork" in calls
    calls.clear()
    run_sweep(_tiny_grid(), jobs=1)
    assert calls == []  # nothing forks, nothing to pre-load


def test_run_sweep_rejects_unpicklable_matrix_ref_up_front():
    bad = MatrixRef(name="bad", source=("coo", lambda: None))
    grid = SweepGrid(matrices=(bad,), schemes=(SchemeSpec("1d-rowwise"),), ks=(2,))
    with pytest.raises(UsageError, match="matrix ref 'bad'"):
        run_sweep(grid, jobs=2)


# ----------------------------------------------------------------------
# Parallel parity (CI smoke, slow tier)
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_parallel_jobs2_parity_with_serial(tmp_path):
    """Tiny grid on a two-worker fork pool: records (ledgers, cuts,
    quality numbers) bit-identical to the serial run, cold and warm."""
    cfg = ExperimentConfig(scale="tiny")
    serial = run_table2(cfg, ks=(2, 4))
    parallel = run_table2(cfg, ks=(2, 4), jobs=2, cache_dir=tmp_path)
    warm = run_table2(cfg, ks=(2, 4), jobs=2, cache_dir=tmp_path)
    assert serial.text == parallel.text == warm.text
    for rs, rp, rw in zip(serial.records, parallel.records, warm.records):
        assert (rs["name"], rs["K"]) == (rp["name"], rp["K"]) == (rw["name"], rw["K"])
        for scheme in ("1D", "2D", "s2D"):
            assert quality_identical(rs[scheme], rp[scheme])
            assert quality_identical(rs[scheme], rw[scheme])
    # the parallel run really used worker processes
    import os

    pids = {e["pid"] for e in parallel.meta["engines"]}
    assert os.getpid() not in pids


@pytest.mark.slow
def test_parallel_multi_seed_axis(tmp_path):
    grid = _tiny_grid(names=("crystk02",), seeds=(42, 7))
    serial = run_sweep(grid)
    parallel = run_sweep(grid, jobs=2, cache_dir=tmp_path)
    assert len(serial.records) == len(parallel.records) == 4
    for a, b in zip(serial.records, parallel.records):
        assert (a.matrix, a.scheme, a.k, a.seed) == (b.matrix, b.scheme, b.k, b.seed)
        assert quality_identical(a.quality, b.quality)
    # distinct seeds produce distinct plans under the same coordinates
    q42 = serial.get("crystk02", "1d-rowwise", 2, seed=42).quality
    q07 = serial.get("crystk02", "1d-rowwise", 2, seed=7).quality
    assert not quality_identical(q42, q07)


@pytest.mark.slow
def test_traced_table2_merges_worker_spans():
    """A traced tiny Table II on a two-worker pool holds the same span
    names, as often, as the serial traced run — the workers' trees are
    grafted back — and its records stay bit-identical."""
    cfg = ExperimentConfig(scale="tiny")

    def traced(jobs):
        with obs.tracing() as tr:
            res = run_table2(cfg, jobs=jobs)
        return res, Counter(sp.name for sp in tr.walk()), tr.total_counters()

    serial, names1, counters1 = traced(1)
    pooled, names2, counters2 = traced(2)
    assert names2 == names1
    assert names1["sweep.cell"] == len(serial.records) * 3
    assert counters2.keys() == counters1.keys()
    assert serial.text == pooled.text
    for rs, rp in zip(serial.records, pooled.records):
        for scheme in ("1D", "2D", "s2D"):
            assert quality_identical(rs[scheme], rp[scheme])
