"""The benchmark's four workloads, their output checks and metrics.

Every workload is a closed loop in one process: one table or one
solve starts only after the previous one has finished.  Each run

1. probes the host with a fixed NumPy job (``host.calibration_s``);
2. builds or loads the native kernels, so no timer sees the build;
3. times its set-up several times and keeps the median (``setup_s``);
4. runs the untraced timed loop for ``seconds`` (end-to-end metrics);
5. with ``trace``, makes one traced pass (per-layer metrics);
6. probes the host again.

Every output is checked; a failed check is counted, never raised.
README.md says why each workload exists and what each metric means.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
import scipy.sparse as sp

import layers
import samples
from repro import obs
from repro.engine import PartitionEngine
from repro.experiments import ExperimentConfig
from repro.experiments.tables import run_table2, run_table5, table_grid
from repro.generators.mesh import knn_mesh
from repro.generators.rmat import rmat
from repro.jobs import host_cpus
from repro.metrics import geomean
from repro.native import native_status, resolve_backend
from repro.simulate import PartitionQuality
from repro.solvers import conjugate_gradient
from repro.sweep import ArtifactCache, quality_identical

#: End-to-end metrics (every workload emits all of them) and units.
END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "cpu_s": "s",
    "warm_s": "s",
    "volume_ratio": "ratio",
    "avg_msgs": "msgs",
    "load_ratio": "ratio",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics of the traced pass and units.  A layer the
#: workload does not run reads 0.
PER_LAYER = {
    "hypergraph.coarsen_s": "s",
    "hypergraph.initial_s": "s",
    "hypergraph.refine_s": "s",
    "hypergraph.kway_s": "s",
    "hypergraph.refine_calls": "count",
    "hypergraph.share": "ratio",
    "partition.model_s": "s",
    "sparse.block_structure_s": "s",
    "dm.block_dm_s": "s",
    "core.s2d_s": "s",
    "core.s2d_bounded_s": "s",
    "generators.matrix_s": "s",
    "simulate.run_s": "s",
    "simulate.summarize_s": "s",
    "simulate.runs": "count",
    "engine.memo_s": "s",
    "engine.hit_ratio": "ratio",
    "runtime.compile_s": "s",
    "runtime.apply_s": "s",
    "runtime.apply_us": "us",
    "runtime.applies_per_s": "1/s",
    "runtime.vs_csr": "ratio",
    "runtime.bytes_per_apply": "B",
    "runtime.words_per_apply": "words",
    "runtime.msgs_per_apply": "msgs",
    "solvers.iterations": "count",
    "solvers.vector_s": "s",
    "sweep.self_s": "s",
    "sweep.cell_s": "s",
    "sweep.makespan_imbalance": "ratio",
    "artifact.warm_hit_ratio": "ratio",
    "quality.max_msgs": "msgs",
    "quality.load_imbalance": "ratio",
    "obs.coverage": "ratio",
    "obs.trace_overhead": "ratio",
    "host.calibration_s": "s",
}

CG_ITERS = 5000
CG_TOL = 1e-8
#: Independent check on every solve: ‖Ax − b‖ / ‖b‖ by scipy CSR.
RESIDUAL_LIMIT = 1e-7
#: A loop stops starting jobs after this many times ``seconds``, even
#: when its minimum sample count is not reached.
HARD_CAP = 3.0


@dataclass(frozen=True)
class Budget:
    """How much work one run does besides measuring for ``seconds``."""

    seconds: float
    setup_reps: int = 3  # solves; a table run times one set-up per job
    warm_reps: int = 9  # solves' warm set-ups, spread over the loop
    min_tables: int = 3  # so one slow cold run cannot move the median
    min_solves: int = 100  # the p90 needs 10 solves beyond it
    traced_solves: int = 10
    csr_reps: int = 200
    probe_reps: int = 3

    @classmethod
    def quick(cls, seconds: float) -> "Budget":
        return cls(seconds, setup_reps=2, warm_reps=2, min_tables=1, min_solves=5,
                   traced_solves=2, csr_reps=20, probe_reps=1)


@dataclass(frozen=True)
class TableWorkload:
    name: str
    run: Callable
    table: int
    headline: str  # record key of the scheme the table is about
    ratio: str  # record key of headline volume ÷ 1D volume
    warm_per_cold: int


@dataclass(frozen=True)
class SolveWorkload:
    name: str
    method: str
    nparts: int
    build: Callable[[int, bool], sp.spmatrix]


def laplacian(a, shift: float, unit: bool = False) -> sp.csr_matrix:
    """``D − W + shift·I`` over the symmetrized off-diagonal pattern of
    ``a``: SPD, so CG applies.  ``W`` holds ``|a_ij| + |a_ji|``, or 1
    with ``unit``."""
    c = sp.coo_matrix(a)
    off = c.row != c.col
    w = sp.coo_matrix(
        (np.abs(c.data[off]), (c.row[off], c.col[off])), shape=c.shape
    ).tocsr()
    w = (w + w.T).tocsr()
    if unit:
        w.data[:] = 1.0
    degree = np.asarray(w.sum(axis=1)).ravel()
    return (sp.diags(degree + shift) - w).tocsr()


def mesh_laplacian(seed: int, quick: bool) -> sp.csr_matrix:
    return laplacian(knn_mesh(600 if quick else 5_000, 12, dim=2, seed=seed), 1e-3)


#: The R-MAT graph is fixed, like the tables' suites: its degree skew
#: moves CG's iteration count by about 6% between generator seeds (the
#: mesh's by 0.5%), which would swamp the timing bounds.  The run seed
#: still drives the partitioner and the right-hand sides.
RMAT_SEED = 1


def rmat_laplacian(seed: int, quick: bool) -> sp.csr_matrix:
    return laplacian(rmat(8 if quick else 12, edge_factor=8, seed=RMAT_SEED), 1e-2, unit=True)


WORKLOADS = {
    w.name: w
    for w in (
        TableWorkload("table2", run_table2, 2, "s2D", "lam_ratio_s2d", warm_per_cold=5),
        TableWorkload("table5", run_table5, 5, "s2D-b", "lam_s2db", warm_per_cold=3),
        SolveWorkload("solve-mesh", "s2d-heuristic", 64, mesh_laplacian),
        SolveWorkload("solve-rmat", "s2d-bounded", 64, rmat_laplacian),
    )
}


@dataclass
class Tally:
    """Operations attempted and the ones whose output check failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)

    def attempt(self, what: str, fn):
        """``fn()``, or None when it raised; the exception is counted as
        a failed operation and the caller's loop goes on."""
        try:
            return fn()
        except Exception as exc:
            self.check(f"{what}: {type(exc).__name__}: {exc}")
            return None


@dataclass
class Result:
    workload: str
    seed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    attempted: int
    failures: list[str]
    missing_hooks: list[str]
    info: dict


# ----------------------------------------------------------------------
# Host and environment
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_head(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git work tree (git is
    kept from searching the checkout's parents)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment_stamp(root: Path, jobs: int, seed: int) -> dict:
    return {
        "nproc": host_cpus(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "native": native_status(),
        "jobs": jobs,
        "seed": seed,
        "git_head": _git_head(root),
    }


def calibration_probe(reps: int) -> list[float]:
    """Seconds per repetition of a fixed NumPy job.  It does not touch
    the program, so a change in it means the host, not the code, got
    slower.  It works in cache and allocates nothing while timed, which
    keeps it blind to the memory state the workload leaves behind."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4096)
    a = rng.standard_normal((64, 64))
    ordered, product = np.empty_like(x), np.empty_like(a)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(2000):
            np.copyto(ordered, x)
            ordered.sort()
            np.matmul(a, a, out=product)
        times.append(time.perf_counter() - t0)
    return times


def _cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def _loop_open(elapsed: float, done: int, minimum: int, seconds: float) -> bool:
    """Whether a timed loop starts another job."""
    if elapsed >= HARD_CAP * max(seconds, 1.0):
        return done == 0
    return done < minimum or elapsed < seconds


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------


def _same_record(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    return all(
        quality_identical(v, b[k]) if isinstance(v, PartitionQuality) else v == b[k]
        for k, v in a.items()
    )


def _table_mismatch(res, ref, what: str) -> str | None:
    if res.text != ref.text:
        return f"{what}: table text differs"
    if len(res.records) != len(ref.records) or not all(
        _same_record(a, b) for a, b in zip(res.records, ref.records)
    ):
        return f"{what}: records differ"
    return None


def _audit_table(res, matrices: dict) -> str | None:
    """Independent checks of one table's numbers: every simulated
    ``y`` equals scipy's ``A @ x`` on the executors' input ramp, and
    s2D never sends more words than the 1D partition it refines."""
    for rec in res.records:
        a = sp.csr_matrix(matrices[rec["name"]])
        x = np.arange(1, a.shape[1] + 1, dtype=np.float64) / a.shape[1]
        ref = a @ x
        scale = max(1.0, float(np.abs(ref).max()))
        for scheme, q in rec.items():
            if isinstance(q, PartitionQuality) and not (
                np.abs(q.run.y - ref).max() <= 1e-9 * scale
            ):
                return f"{rec['name']} K={rec['K']} {scheme}: y differs from A @ x"
        if rec["s2D"].total_volume > rec["1D"].total_volume:
            return f"{rec['name']} K={rec['K']}: s2D volume exceeds 1D"
    return None


def _worker_imbalance(res) -> float:
    """max ÷ mean busy time of the sweep's worker processes."""
    busy: dict[int, float] = {}
    for info in res.meta["engines"]:
        busy[info["pid"]] = busy.get(info["pid"], 0.0) + info["task_s"]
    return max(busy.values()) / statistics.fmean(busy.values())


def _run_table(w: TableWorkload, seed, budget, trace, quick, scratch, tally):
    cfg = ExperimentConfig(scale="tiny", seed=seed)
    ks = None
    if quick:
        ks = (cfg.general_ks if w.table == 2 else cfg.dense_ks)[:1]
    jobs = min(2, host_cpus())
    grid = table_grid(w.table, cfg, ks)

    setup = []

    def materialize():
        # One set-up takes milliseconds, so one is timed after every
        # table run: a single burst would sample one moment of the host.
        t0 = time.perf_counter()
        matrices = {ref.name: ref.materialize() for ref in grid.matrices}
        setup.append(time.perf_counter() - t0)
        return matrices

    matrices = materialize()

    def one_table(jobs_, cache_dir):
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        res = w.run(cfg, ks, jobs=jobs_, cache_dir=cache_dir)
        elapsed, used = time.perf_counter() - t0, _cpu_seconds() - cpu0
        materialize()
        return res, elapsed, used

    cold, cpu, warm, warm_hits, imbalance = [], [], [], [], []
    reference = None
    start = time.perf_counter()
    runs = 0
    while _loop_open(time.perf_counter() - start, runs, budget.min_tables, budget.seconds):
        runs += 1
        cache_dir = scratch / f"table-cache-{runs}"
        try:
            res, wall, used = one_table(jobs, cache_dir)
            cold.append(wall)
            cpu.append(used)
            imbalance.append(_worker_imbalance(res))
            if reference is None:
                reference = res
                tally.check(_audit_table(res, matrices))
            else:
                tally.check(_table_mismatch(res, reference, f"cold run {runs}"))
            for i in range(w.warm_per_cold):
                again, wall, _ = one_table(jobs, cache_dir)
                warm.append(wall)
                hits = sum(info["artifacts"]["hits"] for info in again.meta["engines"])
                warm_hits.append(hits / grid.ncells)
                tally.check(_table_mismatch(again, res, f"warm rerun {runs}.{i}"))
        except Exception as exc:  # counted, and the loop goes on
            tally.check(f"table run {runs}: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    end_to_end, per_layer = {}, {}
    if reference is not None:
        recs = reference.records
        end_to_end = {
            "setup_s": samples.median(setup),
            "job_s": samples.median(cold),
            "cpu_s": samples.median(cpu),
            "volume_ratio": geomean(r[w.ratio] for r in recs),
            "avg_msgs": geomean(r[w.headline].avg_msgs for r in recs),
            "load_ratio": statistics.fmean(1.0 + r["s2D"].load_imbalance for r in recs),
        }
        per_layer = {
            "quality.max_msgs": geomean(r[w.headline].max_msgs for r in recs),
            "quality.load_imbalance": statistics.fmean(r["s2D"].load_imbalance for r in recs),
            "sweep.makespan_imbalance": samples.median(imbalance),
        }
        if warm:
            end_to_end["warm_s"] = samples.median(warm)
            per_layer["artifact.warm_hit_ratio"] = statistics.fmean(warm_hits)
    missing: list[str] = []
    if trace and reference is not None:
        # Serial: run_sweep's pool path does not merge worker spans back.
        cache_dir = scratch / "table-cache-traced"
        with layers.hooks() as missing, obs.tracing() as tr:
            with obs.span("bench.table"):
                t0 = time.perf_counter()
                res = tally.attempt("serial traced run",
                                    lambda: w.run(cfg, ks, jobs=1, cache_dir=cache_dir))
                traced = time.perf_counter() - t0
        if res is not None:
            tally.check(_table_mismatch(res, reference, "serial traced run"))
            per_layer.update(layers.layer_metrics(tr, missing))
            cells = layers.spans_named(tr.spans, "sweep.cell")
            per_layer["sweep.cell_s"] = samples.median(sp_.dur for sp_ in cells)
            per_layer["obs.trace_overhead"] = traced / samples.median(cpu) - 1.0
    info = {"jobs": jobs, "job_tail": samples.tail(cold) if cold else None,
            "samples": {"job_s": cold, "cpu_s": cpu, "warm_s": warm, "setup_s": setup}}
    return end_to_end, per_layer, missing, info


# ----------------------------------------------------------------------
# Solves
# ----------------------------------------------------------------------


def _solve_problem(res, csr, b) -> str | None:
    if not res.converged:
        return f"no convergence in {CG_ITERS} iterations"
    rel = float(np.linalg.norm(csr @ res.x - b) / np.linalg.norm(b))
    if rel > RESIDUAL_LIMIT:
        return f"residual {rel:.3e} > {RESIDUAL_LIMIT:g}"
    return None


def _apply_bytes(cplan) -> int:
    """Bytes one apply reads and writes, computed from the plan's array
    sizes plus the x and y vectors (cache misses are not counted)."""
    arrays = [cplan.pre_cols, cplan.pre_vals, cplan.fold_rows,
              cplan.main_rows, cplan.main_cols, cplan.main_vals]
    for group in (cplan.group1, cplan.group2):
        if group is not None:
            arrays += [group.index, group.take]
    return sum(a.nbytes for a in arrays if a is not None) + 8 * (cplan.nrows + cplan.ncols)


def _csr_seconds(csr, reps: int) -> float:
    """Median seconds of one single-threaded scipy CSR matvec."""
    x = np.random.default_rng(0).standard_normal(csr.shape[1])
    for _ in range(10):
        csr @ x
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        csr @ x
        times.append(time.perf_counter() - t0)
    return samples.median(times)


def _run_solve(w: SolveWorkload, seed, budget, trace, quick, scratch, tally):
    nparts = 4 if quick else w.nparts

    def setup():
        a = w.build(seed, quick)
        eng = PartitionEngine(a, seed=seed)
        plan = eng.plan(w.method, nparts)
        return eng, plan, eng.compiled_plan(plan)

    times = []
    first = None
    for i in range(budget.setup_reps):
        t0 = time.perf_counter()
        eng, plan, cplan = setup()
        times.append(time.perf_counter() - t0)
        if first is None:
            first = plan.partition.nnz_part
        tally.check(None if np.array_equal(plan.partition.nnz_part, first)
                    else f"set-up {i} partitioned differently from set-up 0")
    q = plan.quality()
    q1d = eng.plan("1d-rowwise", nparts).quality()

    store = scratch / "artifacts"
    ArtifactCache(store).store_partition(eng.matrix_digest, plan.key, plan.partition)
    ArtifactCache(store).store_plan(eng.matrix_digest, plan.key, cplan)
    warm, warm_hits = [], []

    def warm_setup():
        t0 = time.perf_counter()
        cache = ArtifactCache(store)
        e2 = PartitionEngine(w.build(seed, quick), seed=seed, artifacts=cache)
        p2 = e2.plan(w.method, nparts)
        c2 = e2.compiled_plan(p2)
        warm.append(time.perf_counter() - t0)
        lookups = cache.stats["hits"] + cache.stats["misses"]
        warm_hits.append(cache.stats["hits"] / lookups)
        same = c2.words == cplan.words and np.array_equal(
            p2.partition.nnz_part, plan.partition.nnz_part)
        tally.check(None if same else f"warm set-up {len(warm)} differs from the cold one")

    csr = sp.csr_matrix(plan.partition.matrix)
    rng = np.random.default_rng(seed)

    def solve(p, cp):
        b = rng.standard_normal(csr.shape[0])
        t0, c0 = time.perf_counter(), time.process_time()
        res = conjugate_gradient(p.partition, b, iters=CG_ITERS, tol=CG_TOL,
                                 plan=cp, backend="native")
        wall, used = time.perf_counter() - t0, time.process_time() - c0
        tally.check(_solve_problem(res, csr, b))
        return res, wall, used

    walls, cpus, iters = [], [], []
    # Warm set-ups are spread over the loop, so that they sample the
    # host at several moments rather than in one burst.
    stride = max(1, budget.min_solves // budget.warm_reps)
    start = time.perf_counter()
    runs = tried = 0
    while _loop_open(time.perf_counter() - start, runs, budget.min_solves, budget.seconds):
        runs += 1
        if tried < budget.warm_reps and (runs - 1) % stride == 0:
            tried += 1
            tally.attempt(f"warm set-up {tried}", warm_setup)
        done = tally.attempt(f"solve {runs}", lambda: solve(plan, cplan))
        if done is not None:
            res, wall, used = done
            walls.append(wall)
            cpus.append(used)
            iters.append(res.iterations)
    while tried < budget.warm_reps:  # the loop hit its time cap early
        tried += 1
        tally.attempt(f"warm set-up {tried}", warm_setup)

    end_to_end = {
        "setup_s": samples.median(times),
        "volume_ratio": q.total_volume / q1d.total_volume,
        "avg_msgs": q.avg_msgs,
        "load_ratio": 1.0 + q.load_imbalance,
    }
    per_layer = {
        "runtime.words_per_apply": cplan.words,
        "runtime.msgs_per_apply": cplan.msgs,
        "runtime.bytes_per_apply": _apply_bytes(cplan),
        "quality.max_msgs": q.max_msgs,
        "quality.load_imbalance": q.load_imbalance,
    }
    if warm:
        end_to_end["warm_s"] = samples.median(warm)
        per_layer["artifact.warm_hit_ratio"] = statistics.fmean(warm_hits)
    if walls:
        end_to_end.update({
            "job_s": samples.median(walls),
            "cpu_s": samples.median(cpus),
        })
        per_layer["runtime.applies_per_s"] = sum(iters) / sum(walls)
        per_layer["solvers.iterations"] = samples.median(iters)
    missing: list[str] = []
    if trace and walls:
        traced = []
        with layers.hooks() as missing, obs.tracing() as tr:
            with obs.span("bench.setup"):
                with obs.span("bench.generate"):
                    a = w.build(seed, quick)
                e3 = PartitionEngine(a, seed=seed)
                p3 = e3.plan(w.method, nparts)
                c3 = e3.compiled_plan(p3)
            with obs.span("bench.quality"):
                p3.quality()
                e3.plan("1d-rowwise", nparts).quality()
            for i in range(budget.traced_solves):
                with obs.span("bench.solve"):
                    done = tally.attempt(f"traced solve {i}", lambda: solve(p3, c3))
                if done is not None:
                    traced.append(done[1])
        per_layer.update(layers.layer_metrics(tr, missing))
        if traced:
            per_layer["solvers.vector_s"] /= len(traced)
            applies = layers.spans_named(tr.spans, "plan.apply")
            apply_s = samples.median(layers.self_time(sp_) for sp_ in applies)
            per_layer["runtime.apply_us"] = apply_s * 1e6
            per_layer["runtime.vs_csr"] = apply_s / _csr_seconds(csr, budget.csr_reps)
            per_layer["obs.trace_overhead"] = samples.median(traced) / samples.median(walls) - 1.0
    info = {"nparts": nparts, "job_tail": samples.tail(walls) if walls else None,
            "samples": {"job_s": walls, "cpu_s": cpus, "iterations": iters,
                        "setup_s": times, "warm_s": warm}}
    return end_to_end, per_layer, missing, info


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 quick: bool, scratch: Path, root: Path) -> Result:
    """Run one workload in this process; see the module docstring.

    ``scratch`` is a directory the run may fill and that the caller
    removes; ``root`` is the checkout (for the git stamp).
    """
    w = WORKLOADS[name]
    budget = Budget.quick(seconds) if quick else Budget(seconds)
    before = calibration_probe(budget.probe_reps)
    resolve_backend("native")  # build or load the kernels before any timer
    tally = Tally()
    scratch.mkdir(parents=True, exist_ok=True)
    run = _run_table if isinstance(w, TableWorkload) else _run_solve
    end_to_end, per_layer, missing, info = run(w, seed, budget, trace, quick, scratch, tally)
    after = calibration_probe(budget.probe_reps)
    if end_to_end:
        end_to_end["peak_rss_mb"] = _peak_rss_mb()
    if trace:
        per_layer["host.calibration_s"] = samples.median(before + after)
        omitted = layers.omitted_metrics(missing)
        for metric in PER_LAYER:
            if metric not in omitted:
                per_layer.setdefault(metric, 0.0)
    info["stamp"] = environment_stamp(root, info.pop("jobs", 1), seed)
    info["calibration_s"] = {"before": before, "after": after}
    return Result(
        workload=name, seed=seed,
        end_to_end={k: float(v) for k, v in end_to_end.items()},
        per_layer={k: float(v) for k, v in per_layer.items()},
        attempted=tally.attempted, failures=tally.failures,
        missing_hooks=missing, info=info,
    )
