"""Micro-benchmark: the multilevel partitioner, native and NumPy.

Times end-to-end ``partition_kway`` (with a per-stage breakdown folded
from its ``repro.obs`` trace) on column-net models of an R-MAT instance
and a kNN mesh at K ∈ {16, 64}, and compares its connectivity-1 cuts,
there and on the Table-I generator suite, with the seed
(pre-vectorization) partitioner's cuts, frozen in :data:`SEED_CUTS`.
The same models at K = 1024 (``large_k``; no seed cut exists there)
time the K-way polish at a large K.  Every run uses the process's
partitioner threads (``config.nthreads``, all of ``config.host_cpus``)
and is repeated on one thread: the partitions must be identical
(``threads_identical``).  On the acceptance instance it also times
``partition_kway`` with the NumPy loops forced
(``set_default_backend("numpy")``): the native-over-NumPy speedup gates
the C V-cycle, and both backends must return the same partition.
Emits ``BENCH_partitioner.json`` at the repository root.

Run directly (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_partitioner.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_partitioner.json"

SEED = 5
# Native V-cycle over the NumPy reference loops, whole partition_kway.
NATIVE_SPEEDUP_TARGET = 5.0
QUALITY_TOLERANCE = 1.05
ACCEPTANCE_MODEL = "mesh10k-colnet"  # the ~10k-vertex column-net model
ACCEPTANCE_K = 64
STAGES = ("coarsen", "initial", "refine", "kway")

#: Connectivity-1 cuts of the seed partitioner, keyed by (model, K):
#: the end-to-end models at ``PartitionConfig(seed=SEED)`` and the tiny
#: Table-I suite at ``PartitionConfig(seed=3)``, full and quick scale.
#: Frozen: the seed partitioner is deleted.
SEED_CUTS = {
    ("rmat13-colnet", 16): 25270,
    ("rmat13-colnet", 64): 50941,
    ("mesh10k-colnet", 16): 2186,
    ("mesh10k-colnet", 64): 5033,
    ("rmat9-colnet", 4): 675,
    ("rmat9-colnet", 8): 1270,
    ("mesh400-colnet", 4): 96,
    ("mesh400-colnet", 8): 221,
    ("crystk02", 16): 467,
    ("turon_m", 16): 473,
    ("trdheim", 16): 523,
    ("c-big", 16): 856,
    ("ASIC_680k", 16): 745,
    ("crystk02", 8): 269,
    ("turon_m", 8): 334,
}


def _models(quick: bool):
    from repro.generators.mesh import knn_mesh
    from repro.generators.rmat import rmat

    if quick:
        return [
            ("rmat9-colnet", rmat(9, edge_factor=8.0, seed=99)),
            ("mesh400-colnet", knn_mesh(400, 8, dim=2, seed=7)),
        ]
    return [
        ("rmat13-colnet", rmat(13, edge_factor=8.0, seed=99)),
        ("mesh10k-colnet", knn_mesh(10_000, 12, dim=2, seed=7)),
    ]


def _stages(trace, total_s: float) -> dict:
    """The ``stages`` record of one traced ``partition_kway`` run."""
    from repro import obs

    times = obs.stage_times(trace, "partition")
    counters = trace.total_counters()
    stages = {f"{name}_s": times.get(name, 0.0) for name in STAGES}
    stages["total_s"] = total_s
    for name in ("levels", "bisections", "cut_before_kway", "cut_after_kway"):
        if f"partition.{name}" in counters:
            stages[name] = counters[f"partition.{name}"]
    return stages


def _timed(hg, k: int, cfg, nthreads: int | None = None):
    """``(part, seconds, trace)`` of one ``partition_kway`` on the
    process's partitioner threads, or on ``nthreads`` of them."""
    from repro import obs
    from repro.hypergraph import partition_kway
    from repro.jobs import set_partition_threads

    set_partition_threads(nthreads)
    try:
        with obs.tracing() as trace:
            t0 = time.perf_counter()
            part = partition_kway(hg, k, cfg)
            seconds = time.perf_counter() - t0
    finally:
        set_partition_threads(None)
    return part, seconds, trace


def run(out_path: pathlib.Path = DEFAULT_OUT, *, quick: bool = False) -> dict:
    from repro.generators.suite import table1_suite
    from repro.hypergraph import (
        PartitionConfig,
        column_net_model,
        connectivity_minus_one,
        imbalance,
        partition_kway,
    )
    from repro.jobs import host_cpus, partition_threads
    from repro.native import resolve_backend, set_default_backend

    ks = (4, 8) if quick else (16, 64)
    large_k = 64 if quick else 1024
    cfg = PartitionConfig(seed=SEED)

    entries = []
    large = []
    runs = {}  # (model, k) -> (hypergraph, partition)
    threads_identical = True
    for name, a in _models(quick):
        hg = column_net_model(a)
        for k in (*ks, large_k):
            part, t_new, trace = _timed(hg, k, cfg)
            one, one_s, _ = _timed(hg, k, cfg, nthreads=1)
            threads_identical &= bool(np.array_equal(part, one))
            runs[name, k] = hg, part
            cut_new = connectivity_minus_one(hg, part)
            entry = {
                "model": name,
                "nvertices": hg.nvertices,
                "nnets": hg.nnets,
                "npins": hg.npins,
                "k": k,
                "vectorized_s": t_new,
                "one_thread_s": one_s,
                "cut_vectorized": cut_new,
            }
            if k == large_k:
                entry["imbalance_vectorized"] = imbalance(hg, part, k)
                entry["stages"] = _stages(trace, t_new)
                large.append(entry)
                print(
                    f"{name:16s} K={k:<4d} vectorized {t_new:7.2f}s  "
                    f"one thread {one_s:7.2f}s  kway {entry['stages']['kway_s']:.3f}s"
                )
                continue
            cut_old = SEED_CUTS[name, k]
            entry.update(
                cut_legacy=cut_old,
                cut_ratio=cut_new / max(cut_old, 1),
                imbalance_vectorized=imbalance(hg, part, k),
                stages=_stages(trace, t_new),
            )
            entries.append(entry)
            print(
                f"{name:16s} K={k:<4d} vectorized {t_new:7.2f}s  "
                f"one thread {one_s:7.2f}s  cut ratio {cut_new / max(cut_old, 1):.3f}"
            )

    # Quality sweep over the generator suite (cut within 5% of seed).
    qk = 8 if quick else 16
    nsuite = 2 if quick else 5
    qual = []
    for sm in table1_suite("tiny")[:nsuite]:
        hg = column_net_model(sm.matrix())
        qcfg = PartitionConfig(seed=3)
        cut_new = connectivity_minus_one(hg, partition_kway(hg, qk, qcfg))
        cut_old = SEED_CUTS[sm.name, qk]
        qual.append(
            {
                "matrix": sm.name,
                "cut_vectorized": cut_new,
                "cut_legacy": cut_old,
                "ratio": cut_new / max(cut_old, 1),
            }
        )
    ratios = [q["ratio"] for q in qual]

    accept = next(
        (
            e
            for e in entries
            if e["model"] == ACCEPTANCE_MODEL and e["k"] == ACCEPTANCE_K
        ),
        entries[-1],
    )
    # The same partition_kway on the NumPy reference loops.  The floor
    # binds at full scale with the native backend available; the quick
    # instances are too small for the kernels to show.
    have_native = resolve_backend() == "native"
    hg, part = runs[accept["model"], accept["k"]]
    set_default_backend("numpy")
    try:
        t0 = time.perf_counter()
        part_numpy = partition_kway(hg, accept["k"], cfg)
        numpy_s = time.perf_counter() - t0
    finally:
        set_default_backend(None)
    native_speedup = numpy_s / accept["vectorized_s"]
    backends_identical = bool(np.array_equal(part, part_numpy))
    native_applies = have_native and not quick
    print(
        f"{accept['model']:16s} K={accept['k']:<3d} numpy loops {numpy_s:7.2f}s  "
        f"native speedup {native_speedup:5.1f}x  identical {backends_identical}"
    )
    result = {
        "config": {
            "seed": SEED,
            "quick": quick,
            "kway_passes": cfg.kway_passes,
            "nthreads": partition_threads(),
            "host_cpus": host_cpus(),
        },
        "end_to_end": entries,
        "large_k": large,
        "quality_suite": {
            "k": qk,
            "scale": "tiny",
            "matrices": qual,
            "max_ratio": max(ratios),
            "mean_ratio": sum(ratios) / len(ratios),
        },
        "acceptance": {
            "model": accept["model"],
            "k": accept["k"],
            "numpy_s": numpy_s,
            "native_speedup": native_speedup,
            "native_speedup_target": NATIVE_SPEEDUP_TARGET,
            "native_speedup_target_applies": native_applies,
            "backends_identical": backends_identical,
            "threads_identical": threads_identical,
            "quality_tolerance": QUALITY_TOLERANCE,
            "passed": bool(
                max(ratios) <= QUALITY_TOLERANCE
                and backends_identical
                and threads_identical
                and (native_speedup >= NATIVE_SPEEDUP_TARGET or not native_applies)
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
