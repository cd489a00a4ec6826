"""Micro-benchmark: vectorized multilevel partitioner vs the seed code.

Times end-to-end ``partition_kway`` (with a per-stage breakdown folded
from its ``repro.obs`` trace) on column-net models of an R-MAT instance and a kNN
mesh at K ∈ {16, 64}, against the preserved legacy implementation
(:mod:`repro.hypergraph.legacy`), and compares connectivity-1 quality
on the Table-I generator suite.  On the acceptance instance it also
times ``partition_kway`` with the NumPy loops forced
(``set_default_backend("numpy")``): the native-over-NumPy speedup gates
the C V-cycle without the seed oracle, and both backends must return
the same partition.  Emits ``BENCH_partitioner.json`` at the repository
root.

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
SPEEDUP_TARGET = 3.0
# Native V-cycle over the NumPy reference loops, whole partition_kway.
NATIVE_SPEEDUP_TARGET = 5.0
QUALITY_TOLERANCE = 1.05
ACCEPTANCE_MODEL = "mesh10k-colnet"  # the ~10k-vertex column-net model
ACCEPTANCE_K = 64
STAGES = ("coarsen", "initial", "refine", "kway")


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


def run(out_path: pathlib.Path = DEFAULT_OUT, *, quick: bool = False) -> dict:
    from repro import obs
    from repro.generators.suite import table1_suite
    from repro.hypergraph import (
        PartitionConfig,
        column_net_model,
        connectivity_minus_one,
        imbalance,
        partition_kway,
    )
    from repro.hypergraph.legacy import legacy_partition_kway
    from repro.native import resolve_backend, set_default_backend

    ks = (4, 8) if quick else (16, 64)
    cfg = PartitionConfig(seed=SEED)

    entries = []
    runs = {}  # (model, k) -> (hypergraph, partition)
    for name, a in _models(quick):
        hg = column_net_model(a)
        for k in ks:
            with obs.tracing() as trace:
                t0 = time.perf_counter()
                part = partition_kway(hg, k, cfg)
                t_new = time.perf_counter() - t0
            runs[name, k] = hg, part
            t0 = time.perf_counter()
            part_old = legacy_partition_kway(hg, k, cfg)
            t_old = time.perf_counter() - t0
            cut_new = connectivity_minus_one(hg, part)
            cut_old = connectivity_minus_one(hg, part_old)
            entries.append(
                {
                    "model": name,
                    "nvertices": hg.nvertices,
                    "nnets": hg.nnets,
                    "npins": hg.npins,
                    "k": k,
                    "vectorized_s": t_new,
                    "legacy_s": t_old,
                    "speedup": t_old / t_new,
                    "cut_vectorized": cut_new,
                    "cut_legacy": cut_old,
                    "cut_ratio": cut_new / max(cut_old, 1),
                    "imbalance_vectorized": imbalance(hg, part, k),
                    "stages": _stages(trace, t_new),
                }
            )
            print(
                f"{name:16s} K={k:<3d} vectorized {t_new:7.2f}s  "
                f"legacy {t_old:7.2f}s  speedup {t_old / t_new:5.1f}x  "
                f"cut ratio {cut_new / max(cut_old, 1):.3f}"
            )

    # Quality sweep over the generator suite (cut within 5% of seed).
    qk = 8 if quick else 16
    nsuite = 2 if quick else 5
    qual = []
    for sm in table1_suite("tiny")[:nsuite]:
        hg = column_net_model(sm.matrix())
        qcfg = PartitionConfig(seed=3)
        cut_new = connectivity_minus_one(hg, partition_kway(hg, qk, qcfg))
        cut_old = connectivity_minus_one(hg, legacy_partition_kway(hg, qk, qcfg))
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
        "config": {"seed": SEED, "quick": quick, "kway_passes": cfg.kway_passes},
        "end_to_end": entries,
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
            "speedup": accept["speedup"],
            "speedup_target": SPEEDUP_TARGET,
            "numpy_s": numpy_s,
            "native_speedup": native_speedup,
            "native_speedup_target": NATIVE_SPEEDUP_TARGET,
            "native_speedup_target_applies": native_applies,
            "backends_identical": backends_identical,
            "quality_tolerance": QUALITY_TOLERANCE,
            "passed": bool(
                accept["speedup"] >= SPEEDUP_TARGET
                and max(ratios) <= QUALITY_TOLERANCE
                and backends_identical
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
