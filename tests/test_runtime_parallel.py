"""Shared-memory parallel executor: golden bit-identity and robustness.

The contract under test, on every golden instance across all three
execution models (single-phase, two-phase, mesh-routed):

- ``shard_plan`` decomposes a compiled :class:`~repro.runtime.CommPlan`
  into per-part :class:`~repro.runtime.PartPlan`s whose serial replay
  (:func:`~repro.runtime.apply_shards_serial`) reproduces ``apply_y``
  *bit-identically*;
- the :class:`~repro.runtime.ParallelExecutor` process pool reproduces
  the same bits at any worker count, and the words it actually moves
  through the shared buffers reconcile exactly against the plan's
  machine-model ledger;
- failure is loud and clean: a killed worker raises
  :class:`~repro.errors.SimulationError` within the superstep timeout
  and every shared-memory segment is unlinked (the session fixture in
  ``conftest.py`` re-checks at exit).

Plus the integration surface: solvers (``executor="parallel"``), the
engine's memoized ``parallel_executor`` intermediate, the CLI
``solve --jobs`` path and jobs resolution (``0`` = auto, negative =
:class:`~repro.errors.UsageError`).
"""

import glob
import os
import signal

import numpy as np
import pytest

from repro.engine import PartitionEngine
from repro.errors import ConfigError, SimulationError, UsageError
from repro.jobs import host_cpus, resolve_jobs
from repro.runtime import (
    ParallelExecutor,
    apply_shards_serial,
    build_parallel_executor,
    compile_plan,
    shard_plan,
)
from repro.runtime.parallel import PHASES, _N_STEPS
from repro.solvers import conjugate_gradient, jacobi, power_iteration

from tests.test_runtime import CFG, partitioned_instances  # noqa: F401

pytestmark = pytest.mark.parallel


def _ledger_words(plan) -> np.ndarray:
    """Predicted per-part words per phase, (K, nphases)."""
    return np.stack(
        [plan.ledger.sent_volume(ph) for ph in PHASES[plan.executor]], axis=1
    )


# ----------------------------------------------------------------------
# Sharding: serial replay bit-identity + ledger agreement
# ----------------------------------------------------------------------


def test_shards_replay_bit_identical(partitioned_instances):  # noqa: F811
    rng = np.random.default_rng(31)
    for p, mode in partitioned_instances:
        plan = compile_plan(p)
        shards = shard_plan(p, plan)
        assert len(shards) == p.nparts
        assert sorted(s.part for s in shards) == list(range(p.nparts))
        assert all(s.mode == mode for s in shards)
        for _ in range(2):
            x = rng.standard_normal(p.matrix.shape[1])
            assert np.array_equal(apply_shards_serial(plan, shards, x), plan.apply_y(x))


def test_shards_measure_ledger_exactly(partitioned_instances):  # noqa: F811
    for p, _ in partitioned_instances:
        plan = compile_plan(p)
        shards = shard_plan(p, plan)
        stats = np.zeros((p.nparts, len(PHASES[plan.executor])), dtype=np.int64)
        apply_shards_serial(plan, shards, stats=stats)
        assert np.array_equal(stats, _ledger_words(plan))


def test_shards_own_rows_partition_y(partitioned_instances):  # noqa: F811
    for p, _ in partitioned_instances:
        plan = compile_plan(p)
        shards = shard_plan(p, plan)
        rows = np.concatenate([s.own_rows for s in shards])
        assert np.array_equal(np.sort(rows), np.arange(plan.nrows))


# ----------------------------------------------------------------------
# Process pool: bit-identity, reconciliation, reuse
# ----------------------------------------------------------------------


def test_pool_bit_identical_all_models(partitioned_instances):  # noqa: F811
    rng = np.random.default_rng(32)
    for p, _ in partitioned_instances:
        plan = compile_plan(p)
        shards = shard_plan(p, plan)
        with ParallelExecutor(plan, shards) as ex:
            assert ex.jobs == p.nparts
            for _ in range(3):
                x = rng.standard_normal(p.matrix.shape[1])
                assert np.array_equal(ex.apply_y(x), plan.apply_y(x))
            recon = ex.reconcile()
            assert recon["iters"] == 3
            assert np.array_equal(ex.measured_words(), _ledger_words(plan) * 3)
        assert ex.closed


def test_pool_fewer_workers_than_parts(partitioned_instances):  # noqa: F811
    p, _ = partitioned_instances[1]  # s2d-heuristic, K=4
    plan = compile_plan(p)
    shards = shard_plan(p, plan)
    x = np.random.default_rng(33).standard_normal(p.matrix.shape[1])
    want = plan.apply_y(x)
    for jobs in (1, 2, 3):
        with ParallelExecutor(plan, shards, jobs=jobs) as ex:
            assert ex.jobs == jobs
            assert np.array_equal(ex.apply_y(x), want)
            ex.reconcile()


def test_pool_apply_returns_full_run(partitioned_instances):  # noqa: F811
    from repro.simulate.report import run_partition

    p, _ = partitioned_instances[0]
    x = np.random.default_rng(34).standard_normal(p.matrix.shape[1])
    ref = run_partition(p, x)
    with build_parallel_executor(p) as ex:
        run = ex.apply(x)
    assert np.array_equal(run.y, ref.y)
    assert run.ledger.as_dict() == ref.ledger.as_dict()


def test_pool_rejects_use_after_close(partitioned_instances):  # noqa: F811
    p, _ = partitioned_instances[0]
    ex = build_parallel_executor(p)
    ex.close()
    ex.close()  # idempotent
    with pytest.raises(SimulationError):
        ex.apply_y()


# ----------------------------------------------------------------------
# Failure handling
# ----------------------------------------------------------------------


def _live_segments() -> set[str]:
    return set(glob.glob("/dev/shm/s2d-par-*"))


def test_killed_worker_raises_and_unlinks(partitioned_instances):  # noqa: F811
    p, _ = partitioned_instances[1]
    before = _live_segments()
    ex = build_parallel_executor(p, timeout=5.0)
    os.kill(ex._procs[0].pid, signal.SIGKILL)
    with pytest.raises(SimulationError):
        ex.apply_y()
    assert ex.closed
    assert _live_segments() == before


def test_worker_exception_surfaces_message(partitioned_instances):  # noqa: F811
    p, _ = partitioned_instances[1]
    plan = compile_plan(p)
    shards = shard_plan(p, plan)
    # Corrupt one shard so its worker raises mid-superstep: an
    # out-of-range gather column is an IndexError in the child.
    bad = shards[1]
    assert bad.x_own_cols.size
    bad.x_own_cols[:] = plan.ncols + 100
    ex = ParallelExecutor(plan, shards, timeout=30.0)
    with pytest.raises(SimulationError, match="IndexError"):
        ex.apply_y()
    assert ex.closed


# ----------------------------------------------------------------------
# Solver integration
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def spd_partition():
    """A 1D partition of a symmetric diagonally dominant (SPD) matrix."""
    import scipy.sparse as sp

    from repro.generators.mesh import knn_mesh
    from repro.partition import partition_1d_rowwise

    a = knn_mesh(300, 6, dim=2, seed=7).tocsr()
    sym = (a + a.T) * 0.5
    dom = np.asarray(np.abs(sym).sum(axis=1)).ravel()
    return partition_1d_rowwise(sym + sp.diags(dom + 1.0), 4, CFG)


def test_solvers_parallel_matches_compiled(partitioned_instances, spd_partition):  # noqa: F811
    # Power iteration runs on the golden 1D mesh instance; Jacobi/CG
    # need a well-posed system, so they solve the SPD variant.
    p, _ = partitioned_instances[0]
    r_ser = power_iteration(p, iters=8, tol=0.0)
    r_par = power_iteration(p, iters=8, tol=0.0, executor="parallel", jobs=2)
    assert np.array_equal(r_ser.x, r_par.x)
    assert r_ser.comm_words == r_par.comm_words

    ps = spd_partition
    b = np.linspace(1.0, 2.0, ps.matrix.shape[0])

    r_ser = jacobi(ps, b, iters=6, tol=0.0)
    r_par = jacobi(ps, b, iters=6, tol=0.0, executor="parallel")
    assert np.array_equal(r_ser.x, r_par.x)

    r_ser = conjugate_gradient(ps, b, iters=4, tol=0.0)
    r_par = conjugate_gradient(ps, b, iters=4, tol=0.0, executor="parallel")
    assert np.array_equal(r_ser.x, r_par.x)


def test_solver_rejects_unknown_executor(partitioned_instances):  # noqa: F811
    p, _ = partitioned_instances[0]
    with pytest.raises(ConfigError, match="executor"):
        power_iteration(p, iters=2, executor="threads")


def test_solver_keeps_caller_pool_open(partitioned_instances):  # noqa: F811
    p, _ = partitioned_instances[0]
    plan = compile_plan(p)
    with build_parallel_executor(p, plan) as ex:
        r1 = power_iteration(p, iters=5, tol=0.0, plan=plan, parallel=ex)
        assert not ex.closed  # caller-owned pool survives the solve
        r2 = power_iteration(p, iters=5, tol=0.0, plan=plan)
        assert np.array_equal(r1.x, r2.x)
        assert ex.reconcile()["iters"] == 5


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------


def test_engine_memoizes_executor(medium_square):
    eng = PartitionEngine(medium_square, seed=5)
    plan = eng.plan("s2d-heuristic", 4, config=CFG)
    ex = eng.parallel_executor(plan, jobs=2)
    assert eng.parallel_executor(plan, jobs=2) is ex
    assert eng.parallel_executor(plan, jobs=3) is not ex
    x = np.random.default_rng(6).standard_normal(medium_square.shape[1])
    assert np.array_equal(ex.apply_y(x), eng.compiled_plan(plan).apply_y(x))
    # A closed pool is evicted, not served stale.
    ex.close()
    fresh = eng.parallel_executor(plan, jobs=2)
    assert fresh is not ex and not fresh.closed
    eng.shutdown()
    assert fresh.closed
    eng.shutdown()  # idempotent


def test_engine_clear_cache_shuts_pools_down(medium_square):
    eng = PartitionEngine(medium_square, seed=5)
    plan = eng.plan("s2d-heuristic", 4, config=CFG)
    ex = eng.parallel_executor(plan)
    eng.clear_cache()
    assert ex.closed


# ----------------------------------------------------------------------
# Jobs resolution (CLI + orchestrator)
# ----------------------------------------------------------------------


def test_resolve_jobs():
    assert resolve_jobs(None, default=7) == 7
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == host_cpus()
    with pytest.raises(UsageError, match="--jobs"):
        resolve_jobs(-1, what="--jobs")


def test_run_sweep_rejects_negative_jobs():
    from repro.sweep import run_sweep

    # Jobs are validated before the grid is touched, so a malformed
    # request fails fast without building any task.
    with pytest.raises(UsageError):
        run_sweep(None, jobs=-2)


def _square(v):
    return v * v


def test_map_tasks_jobs_auto():
    from repro.sweep import map_tasks

    assert map_tasks(_square, [1, 2, 3], jobs=0) == [1, 4, 9]
    with pytest.raises(UsageError):
        map_tasks(_square, [1], jobs=-1)


def test_map_tasks_rejects_unpicklable_fn_up_front():
    """A lambda cannot reach a pool worker: the error names it before
    any worker starts, instead of a pickle traceback from the pool."""
    from repro.sweep import map_tasks

    with pytest.raises(UsageError, match="<lambda>.*module-level function"):
        map_tasks(lambda v: v, [1, 2], jobs=2)
    # In-process execution never pickles, so a lambda is fine there.
    assert map_tasks(lambda v: v + 1, [1, 2], jobs=1) == [2, 3]


def test_cli_solve_jobs(capsys):
    from repro.cli import main

    rc = main(
        [
            "solve", "--matrix", "trdheim", "--scheme", "s2d", "--k", "3",
            "--scale", "tiny", "--jobs", "2", "--iters", "10",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "jobs=2" in out
    assert "reconciled against the ledger" in out


def test_cli_solve_negative_jobs_clean_error(capsys):
    from repro.cli import main

    rc = main(
        [
            "solve", "--matrix", "trdheim", "--scheme", "s2d", "--k", "3",
            "--scale", "tiny", "--jobs", "-4",
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "--jobs" in err and "Traceback" not in err


# ----------------------------------------------------------------------
# Superstep schedule sanity
# ----------------------------------------------------------------------


def test_phase_tables_cover_all_executors(partitioned_instances):  # noqa: F811
    seen = set()
    for p, mode in partitioned_instances:
        plan = compile_plan(p)
        assert plan.executor == mode
        assert mode in PHASES and mode in _N_STEPS
        assert len(PHASES[mode]) <= _N_STEPS[mode]
        seen.add(mode)
    assert seen == {"single", "two", "routed"}
