#!/usr/bin/env python3
"""Compare ``run.py --out`` results of a parent commit and a change.

    python3 benchmarks/e2e/compare.py --parent p/*.json --change c/*.json \\
        [--claim job_s@solve-mesh]

Runs pair up per workload in seed order, so run both sides with the
same seeds, alternating which side goes first.  For every (metric,
workload) it prints both medians and quartiles and, for end-to-end
metrics, a verdict against the bound in ``BENCHMARK.json``:

- ``gain`` (claimed metrics only): the change wins at least 9 of 10
  pairs, ties counting for neither, and the medians differ by more
  than the parent's own quartile distance; ``not met`` otherwise, and
  ``too few pairs`` below 10 pairs;
- ``regressed``: the change's median is worse than the parent's by
  more than the bound;
- ``unresolved``: the run-to-run spread (quartile distance over
  median, either side) is wider than the bound and the change's runs
  do not all read better than all of the parent's;
- ``ok`` otherwise; per-layer metrics have no bound and read ``info``.

Each workload also gets a ``failed`` row, the failed output checks per
run, which reads ``checks failed`` when the change failed more checks
than the parent or any change run was not correct.

Results are not compared when their environment stamps differ in
``nproc`` or in whether the native backend was available, when they
were run with different ``--seconds``, ``--trace`` or ``--quick``, or
when the two sides ran different seeds.  A claim must name an
end-to-end metric.  Exit status: 0 when every check held, nothing
regressed and every claim is a gain, 1 otherwise, 2 when the inputs
cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import samples

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
GAIN_WINS = 0.9


class Refused(Exception):
    """The two sets of results cannot be compared."""


def check_stamps(results: list[dict]) -> None:
    keys = {(r["stamp"]["nproc"], r["stamp"]["native"]["available"]) for r in results}
    if len(keys) > 1:
        raise Refused(f"results come from different hosts (nproc, native): {sorted(keys)}")
    runs = {(r["seconds"], r["trace"], r["quick"]) for r in results}
    if len(runs) > 1:
        raise Refused(f"results come from different runs (seconds, trace, quick): {sorted(runs)}")


def pair_up(parent: list[dict], change: list[dict]) -> dict[str, list[tuple[dict, dict]]]:
    sides = ({}, {})
    for side, results in zip(sides, (parent, change)):
        for r in results:
            side.setdefault(r["workload"], []).append(r)
    if sides[0].keys() != sides[1].keys():
        raise Refused(f"workloads differ: {sorted(sides[0])} vs {sorted(sides[1])}")
    pairs = {}
    for workload, runs in sides[0].items():
        other = sides[1][workload]
        seeds = [sorted(r["seed"] for r in side) for side in (runs, other)]
        if seeds[0] != seeds[1]:
            raise Refused(f"{workload}: parent seeds {seeds[0]} but change seeds {seeds[1]}")
        pairs[workload] = list(zip(sorted(runs, key=lambda r: r["seed"]),
                                   sorted(other, key=lambda r: r["seed"])))
    return pairs


def checks(pairs: list[tuple[dict, dict]]) -> dict:
    """Statistics and verdict of the failed output checks per run."""
    parent, change = ([pair[side]["failed"] for pair in pairs] for side in (0, 1))
    worse = sum(change) > sum(parent) or not all(c["correct"] for _, c in pairs)
    return {
        "parent": (samples.median(parent), *samples.quartiles(parent)),
        "change": (samples.median(change), *samples.quartiles(change)),
        "pairs": len(pairs),
        "wins": None,
        "verdict": "checks failed" if worse else "ok",
    }


def verdict(parent: list[float], change: list[float], *, better: str | None,
            bound: float | None, claimed: bool = False) -> dict:
    """Statistics and verdict of one metric over paired runs."""
    p_mid, c_mid = samples.median(parent), samples.median(change)
    out = {
        "parent": (p_mid, *samples.quartiles(parent)),
        "change": (c_mid, *samples.quartiles(change)),
        "pairs": len(parent),
        "wins": None,
    }
    if better is None:
        out["verdict"] = "info"
        return out
    sign = 1.0 if better == "lower" else -1.0
    out["wins"] = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse = sign * (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0
    spread = max(samples.spread(parent), samples.spread(change))
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if claimed:
        q1, q3 = samples.quartiles(parent)
        if len(parent) < MIN_PAIRS:
            out["verdict"] = "too few pairs"
        elif out["wins"] >= GAIN_WINS * len(parent) and -sign * (c_mid - p_mid) > q3 - q1:
            out["verdict"] = "gain"
        else:
            out["verdict"] = "not met"
    elif worse > bound:
        out["verdict"] = "regressed"
    elif spread > bound and not all_better:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "ok"
    return out


def compare(parent: list[dict], change: list[dict], spec: dict, claims: set[tuple[str, str]]):
    """Rows of ``(workload, metric, verdict dict)``."""
    check_stamps(parent + change)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    unbounded = sorted(metric for metric, _ in claims if metric not in bounds)
    if unbounded:
        raise Refused(f"claims name metrics that are not end-to-end: {unbounded}")
    rows = []
    for workload, pairs in sorted(pair_up(parent, change).items()):
        rows.append((workload, "failed", checks(pairs)))
        names = defaultdict(list)
        for p, c in pairs:
            for group in ("end_to_end", "per_layer"):
                for name in p[group].keys() & c[group].keys():
                    names[name].append((p[group][name], c[group][name]))
        for name, values in sorted(names.items()):
            if len(values) != len(pairs):
                continue  # not measured in every run (e.g. traced runs only)
            m = bounds.get(name)
            rows.append((workload, name, verdict(
                [v[0] for v in values], [v[1] for v in values],
                better=m and m["better"], bound=m and m["bound"],
                claimed=(name, workload) in claims,
            )))
    return rows


def _fmt(stats) -> str:
    mid, q1, q3 = stats
    return f"{mid:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", type=Path, required=True)
    ap.add_argument("--change", nargs="+", type=Path, required=True)
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD",
                    help="end-to-end metric the change claims to improve on that workload")
    args = ap.parse_args(argv)
    claims = set()
    for claim in args.claim:
        metric, _, workload = claim.partition("@")
        if not workload:
            ap.error(f"--claim {claim!r}: expected METRIC@WORKLOAD")
        claims.add((metric, workload))
    spec = json.loads(SPEC.read_text())
    parent, change = ([json.loads(p.read_text()) for p in paths]
                      for paths in (args.parent, args.change))
    try:
        rows = compare(parent, change, spec, claims)
    except Refused as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':11} {'metric':26} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'wins':>6} verdict")
    failed = False
    for workload, name, v in rows:
        wins = "" if v["wins"] is None else f"{v['wins']}/{v['pairs']}"
        print(f"{workload:11} {name:26} {_fmt(v['parent']):34} {_fmt(v['change']):34} "
              f"{wins:>6} {v['verdict']}")
        failed |= v["verdict"] in ("checks failed", "regressed", "not met", "too few pairs")
    seen = {(name, workload) for workload, name, _ in rows}
    for metric, workload in sorted(claims - seen):
        print(f"compare: claim {metric}@{workload} matches no measured metric", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
