#!/usr/bin/env python3
"""Run one end-to-end benchmark workload in a fresh process.

From the repository root::

    python3 benchmarks/e2e/run.py --workload table2 --seed 42 --seconds 10 --trace 1 --out r.json

Workloads: ``table2``, ``table5``, ``solve-mesh``, ``solve-rmat`` (see
README.md).  The run prints every metric it measured as ``name value
unit``, optionally writes the full result (metrics, samples, failures,
environment stamp) to ``--out``, and ends with one JSON line::

    {"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}

whose ``metrics`` are the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  The program is imported from
``src/`` of the checkout; the native kernels are built into
``.bench_build/`` there, and all scratch files live under it too.
Exit status: 0 when every output checked out, 1 when a check failed,
2 when the workload could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"


def parse_args(argv, workloads) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="how long the untraced timed loop measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1,
                    help="1 adds the traced pass and reports per-layer metrics")
    ap.add_argument("--out", type=Path, help="write the full result as JSON here")
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs and K=4: a smoke run of seconds, not a measurement")
    return ap.parse_args(argv)


def _prepare_environment() -> None:
    """Point every build and library at the checkout, single-threaded."""
    os.environ.setdefault("REPRO_NATIVE_CACHE", str(BUILD / "repro-native"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv=None) -> int:
    _prepare_environment()
    try:
        import workloads
    except ImportError as exc:
        print(f"e2e: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, workloads.WORKLOADS)

    scratch = BUILD / f"run-{os.getpid()}"
    try:
        result = workloads.run_workload(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), quick=args.quick, scratch=scratch, root=ROOT,
        )
    except Exception as exc:
        print(f"e2e: {args.workload} could not run: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    stamp = result.info["stamp"]
    print(f"# {result.workload} seed={result.seed} nproc={stamp['nproc']} "
          f"native={stamp['native']['available']} git={stamp['git_head']}")
    for group, units in ((result.end_to_end, workloads.END_TO_END),
                         (result.per_layer, workloads.PER_LAYER)):
        for name, unit in units.items():
            if name in group:
                print(f"{name} {group[name]!r} {unit}")
    if result.info["job_tail"] is not None:
        label, value = result.info["job_tail"]
        print(f"# job tail: {label} {value!r} s over {len(result.info['samples']['job_s'])} jobs"
              " (not gated: on a shared host it mostly measures the host)")
    for target in result.missing_hooks:
        print(f"# missing hook: {target}")
    for problem in result.failures:
        print(f"# FAILED: {problem}")

    chosen, units = ((result.per_layer, workloads.PER_LAYER) if args.trace
                     else (result.end_to_end, workloads.END_TO_END))
    summary = {
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {n: {"value": chosen[n], "unit": u} for n, u in units.items() if n in chosen},
    }
    if args.out is not None:
        full = {
            "workload": result.workload,
            "seed": result.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "quick": args.quick,
            **{k: summary[k] for k in ("correct", "attempted", "failed")},
            "failures": result.failures,
            "missing_hooks": result.missing_hooks,
            "end_to_end": result.end_to_end,
            "per_layer": result.per_layer,
            **result.info,
        }
        args.out.write_text(json.dumps(full, indent=1, default=float) + "\n")
    print(json.dumps(summary, default=float))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
