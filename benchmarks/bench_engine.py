"""Micro-benchmark: block analytics and block DM on the native and NumPy
backends.

Times ``BlockStructure.block_stats`` and ``batched_block_dm`` on a
64-part R-MAT instance (≥ 1e5 nonzeros) — the DM batch once with the
native kernel (one ``repro_block_dm`` call) and once with the NumPy
reference loop — plus the engine's multi-method pipeline on one
shared engine against a fresh engine per method, and emits the numbers to ``BENCH_engine.json`` at the
repository root.  Exits non-zero when the native DM batch is less than
``NATIVE_DM_SPEEDUP_TARGET`` times faster than the NumPy one (skipped
without a compiler).

Run directly (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_engine.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_engine.json"

RMAT_SCALE = 13
EDGE_FACTOR = 10.0
NPARTS = 64
MIN_NNZ = 100_000
REPEATS = 5
#: Floor on native-over-NumPy ``batched_block_dm`` time.  Measured 20-36x
#: on a 2-vCPU Xeon; the floor leaves room for noisy or slower hosts.
NATIVE_DM_SPEEDUP_TARGET = 10.0


def _best_of(repeats, fn, *, reset=None):
    """Minimum wall time of ``fn`` over ``repeats`` runs (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        if reset is not None:
            reset()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run(out_path: pathlib.Path = DEFAULT_OUT, *, quick: bool = False) -> dict:
    from repro.dm.batch import batched_block_dm
    from repro.engine import PartitionEngine
    from repro.generators.rmat import rmat
    from repro.native import get_kernels, set_default_backend
    from repro.sparse.blocks import BlockStructure

    scale = 9 if quick else RMAT_SCALE
    min_nnz = 1 if quick else MIN_NNZ
    a = rmat(scale, edge_factor=EDGE_FACTOR, seed=99)
    assert a.nnz >= min_nnz, f"R-MAT instance too small: {a.nnz} nnz"
    n = a.shape[0]
    # Contiguous block vector partition: deterministic and cheap, so the
    # timings isolate the analytics, not the hypergraph partitioner.
    y = np.minimum((np.arange(n, dtype=np.int64) * NPARTS) // n, NPARTS - 1)
    bs = BlockStructure(a.row, a.col, y, y, NPARTS)

    def _reset_stats():
        bs._stats = None

    t_stats = _best_of(REPEATS, bs.block_stats, reset=_reset_stats)
    bs.block_stats()  # leave the cache warm for the DM batches

    def _dm_time(backend: str) -> float:
        set_default_backend(backend)
        try:
            return _best_of(REPEATS, lambda: batched_block_dm(bs))
        finally:
            set_default_backend(None)

    t_dm_numpy = _dm_time("numpy")
    native = get_kernels() is not None
    t_dm_native = _dm_time("native") if native else None

    # Engine pipeline: five methods on one matrix, shared intermediates
    # (one engine) vs rebuilt per method (a fresh engine each, built
    # before the clock starts).  A smaller instance keeps this section
    # fast.
    b = rmat(9, edge_factor=8.0, seed=7)
    methods = ("1d-rowwise", "s2d-heuristic", "s2d-optimal", "s2d-bounded", "s2d-balanced")

    def _pipeline(shared: bool) -> float:
        if shared:
            engines = [PartitionEngine(b, seed=1)] * len(methods)
        else:
            engines = [PartitionEngine(b, seed=1) for _ in methods]
        t0 = time.perf_counter()
        for eng, method in zip(engines, methods):
            eng.plan(method, 16)
        return time.perf_counter() - t0

    t_pipe_cached = min(_pipeline(True) for _ in range(3))
    t_pipe_uncached = min(_pipeline(False) for _ in range(3))

    result = {
        "matrix": {
            "generator": "rmat",
            "scale": scale,
            "edge_factor": EDGE_FACTOR,
            "n": int(n),
            "nnz": int(a.nnz),
            "nparts": NPARTS,
            "nonempty_blocks": int(bs.block_keys.size),
        },
        "block_stats": {
            "batched_s": t_stats,
        },
        "block_dm": {
            "numpy_s": t_dm_numpy,
            "native_s": t_dm_native,
            "native_speedup": t_dm_numpy / t_dm_native if native else None,
            "native_speedup_target": NATIVE_DM_SPEEDUP_TARGET,
        },
        "engine_pipeline": {
            "methods": len(methods),
            "nparts": 16,
            "uncached_s": t_pipe_uncached,
            "cached_s": t_pipe_cached,
            "speedup": t_pipe_uncached / t_pipe_cached,
        },
    }
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    return result


def main() -> int:
    result = run()
    print(json.dumps(result, indent=2))
    speedup = result["block_dm"]["native_speedup"]
    if speedup is None:
        print("\nnative kernels unavailable: block DM speedup not gated")
        return 0
    print(
        f"\nblock DM native over NumPy: {speedup:.1f}x "
        f"(target >= {NATIVE_DM_SPEEDUP_TARGET:g}x)"
    )
    return 0 if speedup >= NATIVE_DM_SPEEDUP_TARGET else 1


if __name__ == "__main__":
    sys.exit(main())
