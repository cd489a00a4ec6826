"""Bench-trend regression gate over the committed ``BENCH_*.json`` files.

Every benchmark driver under ``benchmarks/`` writes a ``BENCH_*.json``
whose ``acceptance`` block records the measured headline metrics next
to the floors they must clear (``speedup`` vs ``speedup_target``,
``warm_speedup`` vs ``warm_target``, ``amortize_iters`` vs
``amortize_target`` — a *ceiling* — and so on).  This module diffs a
freshly generated set of BENCH files against the committed baselines
and fails when any metric **regresses past the baseline's recorded
floor** — the committed history, not the fresh file, supplies the bar,
so a regressed run cannot lower its own acceptance criteria.

Semantics per metric:

- below the floor (or above a ceiling) → ``regression`` — the gate
  fails;
- worse than the baseline but still clearing the floor → ``drift`` —
  reported, not fatal (hardware noise lives here);
- any boolean acceptance flag (``passed``, ``identical``,
  ``ledgers_identical`` …) false in the fresh file → failure.

:func:`compare_bench` diffs one pair of documents; :func:`trend_report`
walks two directories; ``tools/bench_trend.py`` is the CLI and
``tools/check_all.py --bench`` runs it as a gate step.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "BENCH_GLOB",
    "acceptance_metrics",
    "compare_bench",
    "load_bench",
    "trend_report",
    "trend_text",
]

BENCH_GLOB = "BENCH_*.json"

#: Metrics where the recorded bound is a ceiling (lower is better):
#: ``amortize_iters``, ``vs_scipy_natives`` (native apply over a
#: scipy CSR matvec) and ``loop_overhead`` (a native CG solve's wall
#: over its iterations' bare applies).
_CEILINGS = ("amortize", "vs_scipy", "loop_overhead")


def load_bench(path) -> dict:
    """Parse one BENCH file (raises on malformed JSON — a torn bench
    file should fail the gate loudly, not read as 'no data')."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _floor_key(name: str, acceptance: dict) -> str | None:
    """The acceptance key recording ``name``'s floor/ceiling, if any.

    Handles the shipped naming variants: ``speedup``→``speedup_target``,
    ``cold_speedup``→``cold_target``, ``amortize_iters``→
    ``amortize_target``, ``cold_speedup_measured``→
    ``cold_measured_floor``.
    """
    candidates = (
        f"{name}_target",
        name.replace("_speedup", "") + "_target",
        name.replace("_iters", "") + "_target",
        name.replace("_speedup_measured", "_measured") + "_floor",
    )
    for cand in candidates:
        if cand != name and cand in acceptance:
            return cand
    return None


def acceptance_metrics(doc: dict) -> dict[str, dict]:
    """Extract ``{metric: {value, floor, ceiling?}}`` from a BENCH doc.

    Scalar numeric acceptance entries with a recorded bound are
    metrics; dict-valued entries (e.g. ``native_speedups`` per model)
    fan out one metric per key sharing the collective bound.  Bounds
    themselves and booleans are not metrics.
    """
    acceptance = doc.get("acceptance") or {}
    bound_keys = {
        _floor_key(name, acceptance)
        for name in acceptance
        if _floor_key(name, acceptance)
    }
    metrics: dict[str, dict] = {}
    for name, value in acceptance.items():
        if name in bound_keys or isinstance(value, bool):
            continue
        if isinstance(value, dict):
            bound = _floor_key(name.rstrip("s"), acceptance)
            if bound is None:
                continue
            for sub, subval in value.items():
                if isinstance(subval, (int, float)) and not isinstance(subval, bool):
                    metrics[f"{name}.{sub}"] = {
                        "value": float(subval),
                        "bound": float(acceptance[bound]),
                        "ceiling": any(c in name for c in _CEILINGS),
                        "applies": bool(acceptance.get(f"{bound}_applies", True)),
                    }
            continue
        if not isinstance(value, (int, float)):
            continue
        bound = _floor_key(name, acceptance)
        if bound is None:
            continue
        metrics[name] = {
            "value": float(value),
            "bound": float(acceptance[bound]),
            "ceiling": any(c in name for c in _CEILINGS),
            "applies": bool(acceptance.get(f"{bound}_applies", True)),
        }
    return metrics


def _bool_flags(doc: dict) -> dict[str, bool]:
    """Pass/fail acceptance booleans.  ``*_applies`` flags are host
    condition markers (does this target bind here?), not verdicts."""
    acceptance = doc.get("acceptance") or {}
    return {
        k: v
        for k, v in acceptance.items()
        if isinstance(v, bool) and not k.endswith("_applies")
    }


def compare_bench(baseline: dict, fresh: dict) -> dict:
    """Diff one fresh BENCH document against its committed baseline.

    Returns ``{"ok", "metrics": {name: {...}}, "flags": {...}}``.
    Bounds come from the *baseline* where recorded (falling back to the
    fresh file for metrics the baseline predates).
    """
    base_metrics = acceptance_metrics(baseline)
    fresh_metrics = acceptance_metrics(fresh)
    out: dict[str, dict] = {}
    ok = True
    for name, fm in fresh_metrics.items():
        bm = base_metrics.get(name)
        bound = bm["bound"] if bm is not None else fm["bound"]
        ceiling = fm["ceiling"]
        new = fm["value"]
        old = bm["value"] if bm is not None else None
        # The *fresh* run decides whether the bound binds on this host
        # (e.g. speedup_target_applies=false on a 1-CPU machine).
        applies = fm.get("applies", True)
        violates = applies and ((new > bound) if ceiling else (new < bound))
        drifted = old is not None and ((new > old) if ceiling else (new < old))
        if violates:
            status = "regression"
        elif not applies:
            status = "advisory"
        elif drifted:
            status = "drift"
        else:
            status = "ok"
        ok &= not violates
        out[name] = {
            "new": new,
            "baseline": old,
            "bound": bound,
            "ceiling": ceiling,
            "status": status,
        }
    flags = {}
    for name, value in _bool_flags(fresh).items():
        flags[name] = bool(value)
        ok &= bool(value)
    # A baseline metric vanishing from the fresh file is a silent hole
    # in the gate, not a pass.
    for name in base_metrics:
        if name not in fresh_metrics:
            out[name] = {
                "new": None,
                "baseline": base_metrics[name]["value"],
                "bound": base_metrics[name]["bound"],
                "ceiling": base_metrics[name]["ceiling"],
                "status": "missing",
            }
            ok = False
    return {"ok": ok, "metrics": out, "flags": flags}


def trend_report(baseline_dir, fresh_dir) -> dict:
    """Compare every ``BENCH_*.json`` under ``fresh_dir`` against
    ``baseline_dir``; baseline-only files count as missing benches.

    Files without an ``acceptance`` block are listed as uncomparable
    but do not fail the gate.
    """
    baseline_dir, fresh_dir = Path(baseline_dir), Path(fresh_dir)
    names = sorted(
        {p.name for p in baseline_dir.glob(BENCH_GLOB)}
        | {p.name for p in fresh_dir.glob(BENCH_GLOB)}
    )
    benches: dict[str, dict] = {}
    ok = True
    for name in names:
        base_path = baseline_dir / name
        fresh_path = fresh_dir / name
        if not fresh_path.exists():
            benches[name] = {"ok": False, "error": "missing fresh file"}
            ok = False
            continue
        fresh = load_bench(fresh_path)
        baseline = load_bench(base_path) if base_path.exists() else fresh
        if not (fresh.get("acceptance") or baseline.get("acceptance")):
            benches[name] = {"ok": True, "skipped": "no acceptance block"}
            continue
        result = compare_bench(baseline, fresh)
        benches[name] = result
        ok &= result["ok"]
    return {"ok": ok, "benches": benches}


def trend_text(report: dict) -> str:
    """Human rendering of :func:`trend_report`."""
    lines = []
    for name, bench in report["benches"].items():
        if "error" in bench:
            lines.append(f"{name}: FAIL ({bench['error']})")
            continue
        if "skipped" in bench:
            lines.append(f"{name}: skipped ({bench['skipped']})")
            continue
        lines.append(f"{name}: {'ok' if bench['ok'] else 'FAIL'}")
        for metric, m in bench["metrics"].items():
            rel = "<=" if m["ceiling"] else ">="
            base = "n/a" if m["baseline"] is None else f"{m['baseline']:.3f}"
            new = "missing" if m["new"] is None else f"{m['new']:.3f}"
            lines.append(
                f"  {metric:<28} {new:>9} (baseline {base}, "
                f"must be {rel} {m['bound']:.3f}) [{m['status']}]"
            )
        for flag, value in bench["flags"].items():
            if not value:
                lines.append(f"  {flag:<28} False [flag-failure]")
    lines.append(f"bench-trend: {'PASS' if report['ok'] else 'FAIL'}")
    return "\n".join(lines)
