"""Micro-benchmark: ordering, block analytics and block DM.

Times ``BlockStructure.block_stats`` and ``batched_block_dm`` (one
``repro_block_dm`` call) on a 64-part R-MAT instance (≥ 1e5
nonzeros), plus the engine's multi-method pipeline on one shared
engine against a fresh engine per method.  The ordering row
times ``canonical_coo`` on the same triplets scrambled by a fixed
permutation, ``column_net_model`` on the result, and the radix
``stable_order`` against ``np.argsort(kind="stable")`` on the nnz-long
column ids (``sort_speedup``, gated by ``tools/bench_trend.py``
against ``SORT_SPEEDUP_TARGET``).  The numbers go to
``BENCH_engine.json`` at the repository root.  Exits non-zero when the
radix ordering is less than ``SORT_SPEEDUP_TARGET`` times faster than
the stable argsort.

Run directly (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_engine.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np
import scipy.sparse as sp

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_engine.json"

RMAT_SCALE = 13
EDGE_FACTOR = 10.0
NPARTS = 64
MIN_NNZ = 100_000
REPEATS = 5
#: Floor on ``stable_order`` over ``np.argsort(kind="stable")`` for the
#: nnz-long column ids.  Measured about 7x on a 2-vCPU Xeon.
SORT_SPEEDUP_TARGET = 3.0


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
    from repro.hypergraph.models import column_net_model
    from repro.kernels import stable_order
    from repro.sparse.blocks import BlockStructure
    from repro.sparse.coo import canonical_coo

    scale = 9 if quick else RMAT_SCALE
    min_nnz = 1 if quick else MIN_NNZ
    a = rmat(scale, edge_factor=EDGE_FACTOR, seed=99)
    assert a.nnz >= min_nnz, f"R-MAT instance too small: {a.nnz} nnz"
    n = a.shape[0]
    # Contiguous block vector partition: deterministic and cheap, so the
    # timings isolate the analytics, not the hypergraph partitioner.
    y = np.minimum((np.arange(n, dtype=np.int64) * NPARTS) // n, NPARTS - 1)
    bs = BlockStructure(a.row, a.col, y, y, NPARTS)

    # Ordering: canonicalize the triplets from a fixed scrambled order,
    # build the column-net model, and time the radix ordering kernel
    # against NumPy's stable comparison sort on the model's keys.
    perm = np.random.default_rng(0).permutation(a.nnz)
    scrambled = sp.coo_matrix((a.data[perm], (a.row[perm], a.col[perm])), shape=a.shape)
    canon = canonical_coo(scrambled)
    t_canonical = _best_of(REPEATS, lambda: canonical_coo(scrambled))
    t_model = _best_of(REPEATS, lambda: column_net_model(canon))
    col_ids = canon.col.astype(np.int64)
    t_radix = _best_of(REPEATS, lambda: stable_order(col_ids, n))
    t_argsort = _best_of(REPEATS, lambda: np.argsort(col_ids, kind="stable"))
    sort_speedup = t_argsort / t_radix

    def _reset_stats():
        bs._stats = None

    t_stats = _best_of(REPEATS, bs.block_stats, reset=_reset_stats)
    bs.block_stats()  # leave the cache warm for the DM batch
    t_dm = _best_of(REPEATS, lambda: batched_block_dm(bs))

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
        "ordering": {
            "canonical_coo_s": t_canonical,
            "column_net_model_s": t_model,
            "stable_order_s": t_radix,
            "argsort_stable_s": t_argsort,
            "sort_speedup": sort_speedup,
        },
        "block_stats": {
            "batched_s": t_stats,
        },
        "block_dm": {
            "native_s": t_dm,
        },
        "engine_pipeline": {
            "methods": len(methods),
            "nparts": 16,
            "uncached_s": t_pipe_uncached,
            "cached_s": t_pipe_cached,
            "speedup": t_pipe_uncached / t_pipe_cached,
        },
        # The quick run's tiny instance is too short for the floor.
        "acceptance": {
            "sort_speedup": sort_speedup,
            "sort_speedup_target": SORT_SPEEDUP_TARGET,
            "sort_speedup_target_applies": not quick,
        },
    }
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    return result


def main() -> int:
    result = run()
    print(json.dumps(result, indent=2))
    sort_speedup = result["ordering"]["sort_speedup"]
    print(
        f"\nstable_order over stable argsort: {sort_speedup:.1f}x "
        f"(target >= {SORT_SPEEDUP_TARGET:g}x)"
    )
    return 0 if sort_speedup >= SORT_SPEEDUP_TARGET else 1


if __name__ == "__main__":
    sys.exit(main())
