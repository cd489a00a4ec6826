#!/usr/bin/env python
"""One-shot verification driver: every static check plus the fast test tier.

Runs, in order, and prints one PASS/FAIL line per step:

1. project lint over ``src/repro`` (``repro check lint``);
2. the plan-IR checker on freshly compiled golden instances across all
   three execution models, and their ``y``
   digests, ledgers, phase flops and plan arrays against the committed
   ``tests/fixtures/runtime_golden.json``; each plan is also saved and
   loaded in memory, and must keep its pinned digests and come back as
   read-only, aligned views of the payload;
3. every case of ``tests/fixtures/partitioner_reference.json`` (the
   partitioner's frozen reference results) through the C driver, at one
   and two threads;
4. the paper's declared claims: the five quantitative tables
   (``GRID_TABLES``) run at ``small`` scale with two sweep workers, and
   any claim ``check_claims`` judges ``FAIL`` fails the step;
5. the fast pytest tier (``-m "not slow"``) in a subprocess — skipped
   with ``--no-pytest`` when only the static layer is wanted;
6. with ``--bench``, the bench-trend gate (``tools/bench_trend.py``)
   over the committed ``BENCH_*.json`` acceptance metrics;
7. with ``--campaign``, a crash-safety smoke: a small faulted grid run
   under a seeded ``FaultPlan`` (worker kill + transient raise) must
   complete with records bit-identical to an unfaulted serial sweep.

Exit status is 0 iff every step passed.  This is the pre-merge gate in
script form: a checkout where ``tools/check_all.py`` exits 0 has the
same guarantees the CI tier enforces.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(1, str(REPO))  # the golden instances live in tests/


def step_lint() -> tuple[bool, str]:
    from repro.verify import run_lint

    violations = run_lint()
    if violations:
        return False, "\n".join(str(v) for v in violations)
    return True, "0 violations over src/repro"


def _saved_and_loaded(plan, pinned: dict) -> list[str]:
    """Problems of ``plan`` after a ``save_plan`` / ``load_plan`` round
    trip in memory: a digest that differs from ``pinned``, or a plan
    array that is not a read-only, aligned view of the payload."""
    import io

    from repro.partition.serialize import load_plan, save_plan

    from tests.golden_runtime import plan_digest

    buf = io.BytesIO()
    save_plan(plan, buf)
    loaded = load_plan(io.BytesIO(buf.getvalue()))
    problems = [
        f"array {name!r} differs after a save/load"
        for name, digest in plan_digest(loaded).items()
        if pinned.get(name) != digest
    ]
    for name, a in loaded.to_state()[1].items():
        if name.startswith("ledger"):  # rebuilt from the ledger's book
            continue
        if a.flags.writeable or not a.flags.aligned or a.flags.owndata:
            problems.append(f"loaded array {name!r} is not a read-only aligned view")
    return problems


def step_plans() -> tuple[bool, str]:
    import json

    from repro.runtime import compile_plan
    from repro.verify import check_plan

    from tests.golden_runtime import FIXTURE, check, golden_instances

    pinned = json.loads(FIXTURE.read_text())
    instances = golden_instances()
    lines, ok = [], True
    for label, p, _ in instances:
        plan = compile_plan(p)
        report = check_plan(plan)
        problems = _saved_and_loaded(plan, pinned[label]["plan"])
        ok &= report.ok and not problems
        lines.append(f"{label}: {report.summary()}")
        lines += [f"{label}: {problem}" for problem in problems]
    drift = check(instances)
    ok &= not drift
    lines.append(
        f"golden digests ({FIXTURE.name}), compiled and saved/loaded: "
        + ("match" if not drift else f"{len(drift)} mismatch(es)")
    )
    lines += drift
    return ok, "\n".join(lines)


def step_partitions() -> tuple[bool, str]:
    from tests.golden_partitioner import FIXTURE, check, reference

    problems = check(threads=(1, 2))
    summary = f"{len(reference())} cases of {FIXTURE.name} at 1 and 2 threads: " + (
        "match" if not problems else f"{len(problems)} mismatch(es)"
    )
    return not problems, "\n".join([summary, *problems])


def step_claims() -> tuple[bool, str]:
    from repro.experiments import GRID_TABLES, ExperimentConfig, check_claims, run_table

    cfg = ExperimentConfig(scale="small")
    lines, ok = [], True
    for table in GRID_TABLES:
        for verdict in check_claims(table, run_table(table, cfg, jobs=2)):
            ok &= verdict.status != "FAIL"
            lines.append(f"table {table}: {verdict}")
    return ok, "\n".join(lines)


def step_bench_trend() -> tuple[bool, str]:
    from repro.obs.trend import trend_report, trend_text

    report = trend_report(REPO, REPO)
    return report["ok"], trend_text(report)


def step_campaign() -> tuple[bool, str]:
    """Faulted campaign smoke: complete under injected faults, records
    bit-identical to serial."""
    import tempfile

    from repro.experiments.config import ExperimentConfig
    from repro.sweep import (
        Campaign,
        FaultPlan,
        FaultSpec,
        RetryPolicy,
        SchemeSpec,
        SweepGrid,
        cell_uid,
        quality_identical,
        run_sweep,
        suite_refs,
    )

    cfg = ExperimentConfig(scale="tiny")
    grid = SweepGrid(
        matrices=suite_refs("table1", scale="tiny")[:3],
        schemes=(SchemeSpec("1d-rowwise", 0), SchemeSpec("s2d-heuristic", 0)),
        ks=(2, 4, 8),
        seeds=(cfg.seed,),
        machine=cfg.machine,
    )
    uids = [cell_uid(t, c) for t in grid.tasks() for c in t.cells]
    faults = FaultPlan(specs=(
        FaultSpec(kind="kill", cell=uids[1]),
        FaultSpec(kind="raise", cell=uids[7], attempts=(0,)),
        FaultSpec(kind="kill", cell=uids[12]),
    ))
    serial = run_sweep(grid, jobs=1)
    with tempfile.TemporaryDirectory(prefix="campaign-smoke-") as root:
        result = Campaign(
            grid, root, jobs=2, faults=faults,
            retry=RetryPolicy(base=0.05, cap=0.2), watchdog_s=120.0,
        ).run()
    lines = [
        f"cells={len(result.records)}/{len(uids)} complete={result.complete} "
        f"killed={int(result.counters['killed'])} "
        f"retries={int(result.counters['retries'])} "
        f"quarantined={int(result.counters['quarantined'])}",
    ]
    ok = result.complete and not result.failed_cells
    if not ok:
        lines += [f"failed: {fc.summary()}" for fc in result.failed_cells]
    ident = len(serial.records) == len(result.records) and all(
        quality_identical(a.quality, b.quality)
        for a, b in zip(serial.records, result.records)
    )
    lines.append(f"bit-identical-to-serial={ident}")
    ok &= ident
    return ok, "\n".join(lines)


def step_pytest() -> tuple[bool, str]:
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-m", "not slow"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    tail = "\n".join(proc.stdout.strip().splitlines()[-4:])
    return proc.returncode == 0, tail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--no-pytest",
        action="store_true",
        help="run only the static checks (lint, plan-IR, partitions, claims)",
    )
    ap.add_argument(
        "--bench",
        action="store_true",
        help="also run the bench-trend gate over the committed BENCH files",
    )
    ap.add_argument(
        "--campaign",
        action="store_true",
        help="also run the faulted campaign smoke (kill/raise faults on a "
        "small grid; asserts completion and serial bit-identity)",
    )
    args = ap.parse_args(argv)

    steps = [
        ("lint", step_lint),
        ("plan-ir", step_plans),
        ("partitions", step_partitions),
        ("claims", step_claims),
    ]
    if args.bench:
        steps.append(("bench-trend", step_bench_trend))
    if args.campaign:
        steps.append(("campaign-smoke", step_campaign))
    if not args.no_pytest:
        steps.append(("pytest-fast", step_pytest))

    failed = []
    for name, fn in steps:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed step is a failed step
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        print(f"[{'PASS' if ok else 'FAIL'}] {name} ({dt:.1f}s)")
        for line in detail.splitlines():
            print(f"    {line}")
        if not ok:
            failed.append(name)

    if failed:
        print(f"\n{len(failed)} step(s) failed: {', '.join(failed)}")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
