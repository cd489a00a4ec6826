"""Micro-benchmark: vectorized SpMV executors vs the seed code.

Times the three simulated executors (single-phase, two-phase,
mesh-routed) against the preserved seed implementations
(:mod:`repro.simulate.legacy`) on an R-MAT instance and a ~10k-vertex
kNN mesh under a communication-heavy cyclic s2D partition at
K ∈ {16, 64}, verifying on every entry that the two paths produce
*bit-identical ledgers* (same phases, same (src, dst) pairs, same
word counts) and identical per-phase flops.  A second section times
the engine's batched ``simulate_all`` over every registered method
with shared intermediates.  Emits ``BENCH_simulate.json`` at the
repository root.

Run directly (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_simulate.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_simulate.json"

SEED = 17
SPEEDUP_TARGET = 5.0
ACCEPTANCE_MODEL = "mesh10k"  # the ~10k-vertex suite mesh
ACCEPTANCE_K = 64
ACCEPTANCE_EXECUTOR = "single-phase"


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


def _identical(run_new, run_old) -> bool:
    import numpy as np

    if run_new.ledger.phase_names != run_old.ledger.phase_names:
        return False
    if run_new.ledger.as_dict() != run_old.ledger.as_dict():
        return False
    if not np.allclose(run_new.y, run_old.y, rtol=1e-12, atol=1e-14):
        return False
    if len(run_new.phases) != len(run_old.phases):
        return False
    for ph_new, ph_old in zip(run_new.phases, run_old.phases):
        if ph_new.name != ph_old.name:
            return False
        if (ph_new.flops is None) != (ph_old.flops is None):
            return False
        if ph_new.flops is not None and not np.array_equal(ph_new.flops, ph_old.flops):
            return False
    return True


def run(out_path: pathlib.Path = DEFAULT_OUT, *, quick: bool = False) -> dict:
    from repro.core import make_s2d_bounded
    from repro.engine import PartitionEngine, available_methods
    from repro.simulate import run_s2d_bounded, run_single_phase, run_two_phase
    from repro.simulate.legacy import (
        legacy_run_s2d_bounded,
        legacy_run_single_phase,
        legacy_run_two_phase,
    )

    ks = (4, 8) if quick else (16, 64)
    executors = [
        ("single-phase", run_single_phase, legacy_run_single_phase, False),
        ("two-phase", run_two_phase, legacy_run_two_phase, False),
        ("routed", run_s2d_bounded, legacy_run_s2d_bounded, True),
    ]

    entries = []
    for name, a in _matrices(quick):
        for k in ks:
            p = _cyclic_s2d(a, k, SEED)
            pb = make_s2d_bounded(p)
            for ex_name, new_fn, old_fn, routed in executors:
                pp = pb if routed else p
                t_new = t_old = float("inf")
                for _ in range(2 if quick else 3):  # best-of-N vs noise
                    t0 = time.perf_counter()
                    run_new = new_fn(pp)
                    t_new = min(t_new, time.perf_counter() - t0)
                    t0 = time.perf_counter()
                    run_old = old_fn(pp)
                    t_old = min(t_old, time.perf_counter() - t0)
                same = _identical(run_new, run_old)
                entries.append(
                    {
                        "model": name,
                        "nnz": int(pp.matrix.nnz),
                        "k": k,
                        "executor": ex_name,
                        "vectorized_s": t_new,
                        "legacy_s": t_old,
                        "speedup": t_old / t_new,
                        "ledger_identical": same,
                        "total_volume": run_new.ledger.total_volume(),
                        "total_msgs": run_new.ledger.total_msgs(),
                    }
                )
                print(
                    f"{name:10s} K={k:<3d} {ex_name:<13s} "
                    f"vectorized {t_new:7.3f}s  legacy {t_old:7.3f}s  "
                    f"speedup {t_old / t_new:5.1f}x  "
                    f"identical={'yes' if same else 'NO'}"
                )

    # Batched engine pass: every registered method on one suite matrix,
    # sharing vector partitions, block analytics and cached runs.
    from repro.generators.suite import table1_suite

    sm = table1_suite("tiny")[2]  # trdheim: small, all methods run fast
    sim_k = 4 if quick else 8
    eng = PartitionEngine(sm.matrix(), seed=SEED)
    t0 = time.perf_counter()
    runs = eng.simulate_all(sim_k)
    t_all = time.perf_counter() - t0
    simulate_all = {
        "matrix": sm.name,
        "k": sim_k,
        "methods": len(runs),
        "seconds": t_all,
        "cache": eng.cache_info(),
        "total_volume": {name: r.ledger.total_volume() for name, r in runs.items()},
    }
    print(
        f"simulate_all[{sm.name}, K={sim_k}]: {len(runs)} methods in {t_all:.2f}s "
        f"({eng.cache_info()['hits']} cache hits)"
    )

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
    result = {
        "config": {"seed": SEED, "quick": quick, "ks": list(ks)},
        "executors": entries,
        "simulate_all": simulate_all,
        "acceptance": {
            "model": accept["model"],
            "k": accept["k"],
            "executor": accept["executor"],
            "speedup": accept["speedup"],
            "speedup_target": SPEEDUP_TARGET,
            "ledgers_identical": all(e["ledger_identical"] for e in entries),
            "passed": bool(
                accept["speedup"] >= SPEEDUP_TARGET
                and all(e["ledger_identical"] for e in entries)
            ),
        },
    }
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    return result


def main() -> int:
    result = run()
    print(json.dumps(result["acceptance"], indent=2))
    return 0 if result["acceptance"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
