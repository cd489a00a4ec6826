"""Micro-benchmark: compiled CommPlan apply vs the per-call simulators.

The compiled runtime's pitch is amortization: ``compile_plan`` runs the
execution model's derivation once (a per-call simulation is that same
derivation plus one apply), after which every ``plan.apply`` is pure
gathers/scatters.  This
benchmark times, for all three execution models (single-phase,
two-phase, mesh-routed) on an R-MAT instance and a ~10k-vertex kNN
mesh under a communication-heavy cyclic s2D partition at K ∈ {16, 64}:

- the per-call simulator's per-iteration wall-clock,
- the compiled plan's per-iteration wall-clock (after compile),
- the compile cost and the break-even iteration count
  (``compile_s / (per_call_s − apply_s)``),
- the native C kernel backend's apply (``apply_native_s``;
  ``native_speedup`` = NumPy apply over native apply) when a C
  compiler is available,
- a raw single-core ``scipy.sparse`` CSR matvec on the same vector
  (``scipy_csr_s``) — the no-partition floor the compiled apply's
  gather/scatter overhead is judged against; every entry carries
  ``vs_scipy`` (= apply_s / scipy_csr_s, the ×-above-floor factor,
  lower is better) and ``vs_scipy_native`` for the native kernels,

verifying on every entry that the compiled apply's ``y`` — under *both*
kernel backends — is *bit-identical* to the
simulator's and the ledgers snapshot identically.
A second section times a full 30-iteration power-iteration solve
through the compiled runtime against a hand loop over the per-call
simulator, and a native CG solve on an SPD operator over the mesh's
pattern (single-phase, K = 64) against one bare bound native apply:
``loop_overhead`` = solve wall ÷ (iterations × bare apply), the share
of a solver iteration spent outside the kernel (1.0 = none).  Emits
``BENCH_runtime.json`` at the repository root.

Acceptance: ≥ 5× per-iteration speedup for the single-phase model on
the ~10k-vertex mesh at K = 64, with compile amortized within ≤ 10
iterations; where the native backend is available, additionally a
≥ 2.5× native-over-NumPy apply speedup and a native apply at most
``VS_SCIPY_NATIVE_TARGET``× the scipy CSR matvec (a ceiling on
``vs_scipy_native``) for the single-phase model at K = 64 on BOTH
benchmark matrices, and a CG ``loop_overhead`` at most
``LOOP_OVERHEAD_TARGET`` (a ceiling).

Run directly (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_runtime.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_runtime.json"

SEED = 17
SPEEDUP_TARGET = 5.0
AMORTIZE_TARGET = 10.0
NATIVE_SPEEDUP_TARGET = 2.5
# Ceiling on native apply / scipy CSR matvec.  The cyclic partitions
# put about half the nonzeros in the precompute, whose grouped scatter
# and fold a CSR matvec does not pay, so the one-call apply measures
# about 2-3x here (it is 1.2-1.6x on the solve workloads' partitions).
VS_SCIPY_NATIVE_TARGET = 4.0
# Ceiling on a native CG solve's wall over iterations x one bare
# bound apply (mesh10k, single-phase, K = 64), set between the
# allocating loop it replaced and the allocation-free one (see
# EXPERIMENTS.md, "Allocation-free solver iterations").
LOOP_OVERHEAD_TARGET = 1.25
CG_ITERS = 100
ACCEPTANCE_MODEL = "mesh10k"  # the ~10k-vertex suite mesh
ACCEPTANCE_K = 64
ACCEPTANCE_EXECUTOR = "single"


def _matrices(quick: bool):
    from repro.generators.mesh import knn_mesh
    from repro.generators.rmat import rmat

    if quick:
        return [
            ("rmat9", rmat(9, edge_factor=8.0, seed=99)),
            ("mesh400", knn_mesh(400, 8, dim=2, seed=7)),
        ]
    return [
        ("rmat13", rmat(13, edge_factor=8.0, seed=99)),
        ("mesh10k", knn_mesh(10_000, 12, dim=2, seed=7)),
    ]


def _cyclic_s2d(a, k: int, seed: int):
    """A communication-heavy but admissible s2D partition.

    Vectors are dealt cyclically (so nearly every off-diagonal nonzero
    reads a remote x and most partials travel), and each nonzero goes
    to its row or column owner by a deterministic coin flip.  This
    stresses exactly the paths the executors vectorize: message
    assembly, delivery joins and partial folds.
    """
    import numpy as np

    from repro.partition.types import SpMVPartition, VectorPartition
    from repro.sparse.coo import canonical_coo

    m = canonical_coo(a)
    nrows, ncols = m.shape
    x_part = np.arange(ncols, dtype=np.int64) % k
    y_part = np.arange(nrows, dtype=np.int64) % k
    rng = np.random.default_rng(seed)
    side = rng.random(m.nnz) < 0.5
    nnz_part = np.where(side, y_part[m.row], x_part[m.col])
    return SpMVPartition(
        matrix=m,
        nnz_part=nnz_part,
        vectors=VectorPartition(x_part=x_part, y_part=y_part, nparts=k),
        kind="s2D",
    )


def _spd(a):
    """``D − W + I/100`` over the symmetrized off-diagonal pattern of
    ``a`` (unit weights): SPD, so CG applies."""
    import numpy as np
    import scipy.sparse as sp

    c = sp.coo_matrix(a)
    off = c.row != c.col
    w = sp.coo_matrix((np.ones(int(off.sum())), (c.row[off], c.col[off])), shape=c.shape)
    w = (w + w.T).tocsr()
    w.data[:] = 1.0
    degree = np.asarray(w.sum(axis=1)).ravel()
    return (sp.diags(degree + 1e-2) - w).tocoo()


def _cg_loop_overhead(a, k: int, quick: bool, reps: int) -> dict:
    """A fixed-length native CG solve against one bare native apply.

    The bare apply is one call of the plan's bound ``repro_plan_apply``
    (:meth:`~repro.runtime.CommPlan.bind`).  Each of ``reps`` rounds
    times a block of bare calls and then one solve, so the two see the
    same host; the result is the median round.
    """
    import numpy as np

    from repro.runtime import compile_plan
    from repro.solvers import conjugate_gradient

    p = _cyclic_s2d(_spd(a), k, SEED)
    plan = compile_plan(p)
    n = p.matrix.shape[0]
    rng = np.random.default_rng(SEED)
    b = rng.standard_normal(n)
    iters = 20 if quick else CG_ITERS
    x, y = rng.standard_normal(n), np.empty(n)
    step = plan.bind(x, y, backend="native")
    calls = 20 if quick else 200
    rounds = []
    step()
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            step()
        t_bare = (time.perf_counter() - t0) / calls
        t0 = time.perf_counter()
        res = conjugate_gradient(p, b, iters=iters, tol=0.0, plan=plan, backend="native")
        t_solve = time.perf_counter() - t0
        rounds.append((t_solve / (res.iterations * t_bare), t_solve, t_bare))
    loop_overhead, t_solve, t_bare = sorted(rounds)[len(rounds) // 2]
    return {
        "executor": plan.executor,
        "iters": res.iterations,
        "solve_s": t_solve,
        "bare_apply_s": t_bare,
        "loop_overhead": loop_overhead,
        "rounds": [r[0] for r in rounds],
    }


def _identical(run_plan, run_ref) -> bool:
    import numpy as np

    return bool(
        np.array_equal(run_plan.y, run_ref.y)
        and run_plan.ledger.phase_names == run_ref.ledger.phase_names
        and run_plan.ledger.as_dict() == run_ref.ledger.as_dict()
    )


def run(out_path: pathlib.Path = DEFAULT_OUT, *, quick: bool = False) -> dict:
    import numpy as np

    from repro.core import make_s2d_bounded
    from repro.native import get_kernels, native_status
    from repro.runtime import compile_plan
    from repro.simulate import run_s2d_bounded, run_single_phase, run_two_phase

    have_native = get_kernels() is not None
    ks = (4, 8) if quick else (16, 64)
    reps = 2 if quick else 3
    executors = [
        ("single", run_single_phase, False),
        ("two", run_two_phase, False),
        ("routed", run_s2d_bounded, True),
    ]

    entries = []
    for name, a in _matrices(quick):
        csr = a.tocsr()
        for k in ks:
            p = _cyclic_s2d(a, k, SEED)
            pb = make_s2d_bounded(p)
            ncols = p.matrix.shape[1]
            rng = np.random.default_rng(SEED)
            x = rng.standard_normal(ncols)
            # Single-core floor: a raw scipy CSR matvec on the same x
            # (no partition, no ledger) — context for apply_s.
            t_csr = float("inf")
            for _ in range(reps):
                t0 = time.perf_counter()
                csr @ x
                t_csr = min(t_csr, time.perf_counter() - t0)
            for ex_name, per_call, routed in executors:
                pp = pb if routed else p
                t_compile = t_call = t_apply = t_apply_nat = float("inf")
                run_nat = None
                for _ in range(reps):  # best-of-N vs noise
                    t0 = time.perf_counter()
                    plan = compile_plan(pp, executor=ex_name)
                    t_compile = min(t_compile, time.perf_counter() - t0)
                    t0 = time.perf_counter()
                    run_ref = per_call(pp, x)
                    t_call = min(t_call, time.perf_counter() - t0)
                    # Per-iteration costs are steady-state: a fresh
                    # plan's first apply also pays one-off costs (first
                    # touch of its accumulators, the native kernel
                    # state), so one untimed apply per backend goes first.
                    plan.apply_y(x, backend="numpy")
                    t0 = time.perf_counter()
                    run_plan = plan.apply(x, backend="numpy")
                    t_apply = min(t_apply, time.perf_counter() - t0)
                    if have_native:
                        plan.apply_y(x, backend="native")
                        t0 = time.perf_counter()
                        run_nat = plan.apply(x, backend="native")
                        t_apply_nat = min(t_apply_nat, time.perf_counter() - t0)
                same = _identical(run_plan, run_ref)
                if have_native:
                    # The native kernels must reproduce the NumPy bits
                    # exactly.
                    same = same and _identical(run_nat, run_ref)
                saved = t_call - t_apply
                amortize = t_compile / saved if saved > 0 else float("inf")
                native_speedup = t_apply / t_apply_nat if have_native else None
                entries.append(
                    {
                        "model": name,
                        "nnz": int(pp.matrix.nnz),
                        "k": k,
                        "executor": ex_name,
                        "compile_s": t_compile,
                        "per_call_s": t_call,
                        "apply_s": t_apply,
                        "apply_native_s": t_apply_nat if have_native else None,
                        "native_speedup": native_speedup,
                        "scipy_csr_s": t_csr,
                        "vs_scipy": t_apply / t_csr,
                        "vs_scipy_native": (
                            t_apply_nat / t_csr if have_native else None
                        ),
                        "speedup": t_call / t_apply,
                        "amortize_iters": amortize,
                        "identical": same,
                    }
                )
                nat_str = (
                    f"native {t_apply_nat:7.4f}s ({native_speedup:4.1f}x)  "
                    if have_native
                    else "native n/a  "
                )
                print(
                    f"{name:10s} K={k:<3d} {ex_name:<7s} "
                    f"per-call {t_call:7.4f}s  apply {t_apply:7.4f}s  "
                    f"{nat_str}"
                    f"csr {t_csr:7.4f}s (vs_scipy {t_apply / t_csr:4.1f}x)  "
                    f"speedup {t_call / t_apply:5.1f}x  "
                    f"compile {t_compile:6.3f}s amortized in {amortize:4.1f} iters  "
                    f"identical={'yes' if same else 'NO'}"
                )

    # Solver section: a 30-iteration power solve through the compiled
    # runtime vs a hand loop over the per-call simulator.
    from repro.partition.types import SpMVPartition  # noqa: F401 (doc link)
    from repro.solvers import power_iteration

    sname, sa = _matrices(quick)[-1]
    sk = ks[-1]
    sp_ = _cyclic_s2d(sa, sk, SEED)
    iters = 10 if quick else 30

    t0 = time.perf_counter()
    res = power_iteration(sp_, iters=iters, tol=0.0)
    t_solver = time.perf_counter() - t0

    t0 = time.perf_counter()
    n = sp_.matrix.shape[1]
    xv = np.ones(n)
    xv /= np.linalg.norm(xv)
    words = 0
    for _ in range(iters):
        r = run_single_phase(sp_, xv)
        xv = r.y / np.linalg.norm(r.y)
        words += r.ledger.total_volume()
    t_loop = time.perf_counter() - t0
    solver = {
        "model": sname,
        "k": sk,
        "iters": iters,
        "compiled_runtime_s": t_solver,
        "per_call_loop_s": t_loop,
        "speedup": t_loop / t_solver,
        "comm_words_equal": res.comm_words == words,
    }
    print(
        f"power_iteration[{sname}, K={sk}, {iters} iters]: "
        f"compiled {t_solver:.3f}s  per-call loop {t_loop:.3f}s  "
        f"speedup {t_loop / t_solver:.1f}x"
    )
    if have_native:
        solver["cg"] = cg = _cg_loop_overhead(sa, sk, quick, 3 if quick else 9)
        print(
            f"conjugate_gradient[{sname}, K={sk}, {cg['executor']}, "
            f"{cg['iters']} iters, native]: {cg['solve_s']:.4f}s  "
            f"bare apply {cg['bare_apply_s'] * 1e6:.1f}us  "
            f"loop_overhead {cg['loop_overhead']:.3f}x"
        )
    loop_overhead = solver["cg"]["loop_overhead"] if have_native else None
    loop_ok = quick or (not have_native) or loop_overhead <= LOOP_OVERHEAD_TARGET

    accept = next(
        (
            e
            for e in entries
            if e["model"] == ACCEPTANCE_MODEL
            and e["k"] == ACCEPTANCE_K
            and e["executor"] == ACCEPTANCE_EXECUTOR
        ),
        entries[-1],
    )
    all_identical = all(e["identical"] for e in entries)
    # Native floor: at the acceptance K, the single-phase native apply
    # must beat the NumPy kernels ≥ NATIVE_SPEEDUP_TARGET× on *every*
    # benchmark matrix (both rmat and mesh shapes).
    native_gate = [
        e
        for e in entries
        if e["k"] == max(ks) and e["executor"] == ACCEPTANCE_EXECUTOR
    ]
    # The perf gate only applies at full scale: the quick instances
    # (<10k nnz) sit at the ctypes per-call overhead floor where the
    # native kernels cannot win — bit-identity is still enforced on
    # every quick entry through ``identical``.
    native_ok = quick or (not have_native) or all(
        e["native_speedup"] is not None
        and e["native_speedup"] >= NATIVE_SPEEDUP_TARGET
        for e in native_gate
    )
    vs_scipy_ok = quick or (not have_native) or all(
        e["vs_scipy_native"] <= VS_SCIPY_NATIVE_TARGET for e in native_gate
    )
    result = {
        "config": {"seed": SEED, "quick": quick, "ks": list(ks)},
        "native": {
            "available": have_native,
            "status": native_status(),
        },
        "entries": entries,
        "solver": solver,
        "acceptance": {
            "model": accept["model"],
            "k": accept["k"],
            "executor": accept["executor"],
            "speedup": accept["speedup"],
            "speedup_target": SPEEDUP_TARGET,
            "amortize_iters": accept["amortize_iters"],
            "amortize_target": AMORTIZE_TARGET,
            "native_speedups": {
                e["model"]: e["native_speedup"] for e in native_gate
            },
            "native_speedup_target": NATIVE_SPEEDUP_TARGET,
            "native_passed": native_ok,
            "vs_scipy_natives": {
                e["model"]: e["vs_scipy_native"] for e in native_gate
            },
            "vs_scipy_native_target": VS_SCIPY_NATIVE_TARGET,
            "vs_scipy_native_target_applies": have_native and not quick,
            "vs_scipy_passed": vs_scipy_ok,
            "loop_overhead": loop_overhead,
            "loop_overhead_target": LOOP_OVERHEAD_TARGET,
            "loop_overhead_target_applies": have_native and not quick,
            "loop_overhead_passed": loop_ok,
            "identical": all_identical,
            "passed": bool(
                accept["speedup"] >= SPEEDUP_TARGET
                and accept["amortize_iters"] <= AMORTIZE_TARGET
                and all_identical
                and native_ok
                and vs_scipy_ok
                and loop_ok
            ),
        },
    }
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    return result


def main() -> int:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    result = run()
    print(json.dumps(result["acceptance"], indent=2))
    return 0 if result["acceptance"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
