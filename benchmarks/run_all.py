"""Regenerate every ``BENCH_*.json`` artifact in one shot.

Drives the JSON-emitting benchmark modules (currently
``bench_engine``, ``bench_partitioner``, ``bench_runtime`` and
``bench_sweep``) and prints a one-line summary per artifact.  ``--quick`` runs every benchmark at tiny scale
(seconds, not minutes) — the same entry point the slow-marked pytest
smoke test uses, so the bench scripts cannot rot unnoticed; the quick
pass exercises the sweep orchestrator end-to-end (parallel workers +
artifact cache) through ``bench_sweep``.  ``--jobs`` / ``--cache-dir``
forward to the sweep benchmark.

::

    PYTHONPATH=src python benchmarks/run_all.py [--quick] [--out-dir DIR]
                                                [--jobs N] [--cache-dir DIR]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import bench_engine  # noqa: E402
import bench_partitioner  # noqa: E402
import bench_runtime  # noqa: E402
import bench_sweep  # noqa: E402

#: (module, artifact filename, headline extractor)
BENCHMARKS = [
    (
        bench_engine,
        "BENCH_engine.json",
        lambda r: (
            f"block DM {r['block_dm']['native_s'] * 1e3:.1f} ms, "
            f"stable_order {r['ordering']['sort_speedup']:.1f}x over argsort"
        ),
    ),
    (
        bench_partitioner,
        "BENCH_partitioner.json",
        lambda r: (
            f"partitioner threads identical {r['acceptance']['threads_identical']}, "
            f"quality max ratio {r['quality_suite']['max_ratio']:.3f} vs seed"
        ),
    ),
    (
        bench_runtime,
        "BENCH_runtime.json",
        lambda r: (
            f"compiled apply speedup {r['acceptance']['speedup']:.1f}x, "
            f"amortized in {r['acceptance']['amortize_iters']:.1f} iters "
            f"(identical: {r['acceptance']['identical']})"
        ),
    ),
    (
        bench_sweep,
        "BENCH_sweep.json",
        lambda r: (
            f"sweep cold speedup {r['acceptance']['cold_speedup']:.1f}x "
            f"(jobs={r['acceptance']['jobs']}), warm "
            f"{r['acceptance']['warm_speedup']:.1f}x "
            f"(identical: {r['acceptance']['identical']})"
        ),
    ),
]


def run_all(
    out_dir: pathlib.Path = REPO_ROOT,
    *,
    quick: bool = False,
    jobs: int | None = None,
    cache_dir=None,
) -> dict:
    """Run every benchmark; returns ``{artifact name: result dict}``.

    ``jobs`` / ``cache_dir`` reach the sweep benchmark (the other
    benchmarks are single-process by design).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    for module, artifact, headline in BENCHMARKS:
        out_path = out_dir / artifact
        kwargs = {"quick": quick}
        if module is bench_sweep:
            kwargs.update(jobs=jobs, cache_dir=cache_dir)
        t0 = time.perf_counter()
        result = module.run(out_path, **kwargs)
        elapsed = time.perf_counter() - t0
        results[artifact] = result
        print(f"{artifact:28s} {elapsed:7.1f}s  {headline(result)}")
    return results


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="tiny-scale smoke run")
    ap.add_argument(
        "--out-dir", type=pathlib.Path, default=REPO_ROOT,
        help="directory receiving the BENCH_*.json artifacts",
    )
    ap.add_argument(
        "--jobs", type=int, default=None,
        help="sweep worker processes for bench_sweep (default: its own)",
    )
    ap.add_argument(
        "--cache-dir", default=None,
        help="parent directory for bench_sweep's artifact cache (the "
        "bench always uses a fresh subdirectory so its cold pass "
        "really is cold; default: a temporary directory)",
    )
    args = ap.parse_args(argv)
    run_all(args.out_dir, quick=args.quick, jobs=args.jobs, cache_dir=args.cache_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
