"""Frozen digests of the compiled runtime on the seven golden partitions.

The partitions cover all three execution models (single-phase,
two-phase, mesh-routed) on a k-NN mesh, a suite matrix, a random
admissible s2D partition and a rectangular matrix.  For each one the
fixture ``fixtures/runtime_golden.json`` records, for the default ``x``
and one seeded random ``x``:

- the sha256 of ``y.tobytes()``;
- ``ledger.as_dict()``;
- the phase names and per-phase flops;

plus the sha256 of every array (and the header) of the compiled plan's
``to_state()``.  :func:`check` compares a compiled plan's ``apply`` and
the per-call simulator's run against those digests, so a change that
moves one bit of ``y``, one ledger word or one plan index fails.

Run as a script to rewrite the fixture (only after a deliberate,
reviewed change of the numerics)::

    PYTHONPATH=src python -m tests.golden_runtime --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "runtime_golden.json"

#: Instance labels, in :func:`golden_instances` order.
LABELS = (
    "1d-rowwise/single",
    "s2d/single",
    "s2d-bounded/routed",
    "finegrain/two",
    "trdheim-1d/single",
    "random-s2d/single",
    "finegrain-rect/two",
)


def golden_instances() -> list[tuple[str, object, str]]:
    """``(label, partition, expected executor)`` for the seven instances."""
    import scipy.sparse as sp

    from repro.core import make_s2d_bounded, s2d_heuristic
    from repro.generators.mesh import knn_mesh
    from repro.generators.suite import table1_suite
    from repro.hypergraph import PartitionConfig
    from repro.partition import partition_1d_rowwise, partition_2d_finegrain
    from repro.sparse.coo import canonical_coo

    from tests.conftest import random_s2d_partition

    cfg = PartitionConfig(seed=23, ninitial=2, fm_passes=2)
    rng = np.random.default_rng(77)
    mesh = knn_mesh(300, 6, dim=2, seed=7)
    oned = partition_1d_rowwise(mesh, 4, cfg)
    s2d = s2d_heuristic(mesh, x_part=oned.vectors, nparts=4)
    suite = table1_suite("tiny")[2].matrix()  # trdheim
    rect = canonical_coo(sp.random(40, 55, density=0.12, random_state=5, format="coo"))
    built = [
        (oned, "single"),
        (s2d, "single"),
        (make_s2d_bounded(s2d), "routed"),
        (partition_2d_finegrain(mesh, 4, cfg), "two"),
        (partition_1d_rowwise(suite, 3, cfg), "single"),
        (random_s2d_partition(rng, mesh, 5), "single"),
        (partition_2d_finegrain(rect, 4, cfg), "two"),
    ]
    return [(label, p, mode) for label, (p, mode) in zip(LABELS, built)]


def golden_xs(index: int, ncols: int) -> dict[str, np.ndarray | None]:
    """The pinned inputs of instance ``index``: the default ramp and one
    seeded standard-normal vector."""
    return {
        "default": None,
        "random": np.random.default_rng(1000 + index).standard_normal(ncols),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digest(run) -> dict:
    """What one run pins: ``y`` bytes, the ledger and the phase flops."""
    return {
        "y_sha256": _sha(np.ascontiguousarray(run.y, dtype=np.float64).tobytes()),
        "ledger": run.ledger.as_dict(),
        "phases": [
            [ph.name, None if ph.flops is None else [int(f) for f in ph.flops]]
            for ph in run.phases
        ],
    }


def plan_digest(plan) -> dict:
    """sha256 of the plan's serialized header and of every state array
    (dtype and shape included)."""
    header, arrays = plan.to_state()
    out = {"header": _sha(json.dumps(header, sort_keys=True).encode())}
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        out[name] = _sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return out


def snapshot() -> dict:
    """The fixture content, computed from the current code."""
    from repro.runtime import compile_plan

    out = {}
    for i, (label, p, mode) in enumerate(golden_instances()):
        plan = compile_plan(p)
        out[label] = {
            "executor": mode,
            "plan": plan_digest(plan),
            "runs": {
                name: run_digest(plan.apply(x))
                for name, x in golden_xs(i, p.matrix.shape[1]).items()
            },
        }
    return out


def check(instances=None) -> list[str]:
    """Mismatches of the compiled plans *and* the per-call simulator
    against the committed fixture (empty when everything is pinned)."""
    from repro.runtime import compile_plan
    from repro.simulate.report import run_partition

    want = json.loads(FIXTURE.read_text())
    instances = golden_instances() if instances is None else instances
    problems = []
    for i, (label, p, _) in enumerate(instances):
        pinned = want.get(label)
        if pinned is None:
            problems.append(f"{label}: not in the fixture")
            continue
        plan = compile_plan(p)
        if plan.executor != pinned["executor"]:
            problems.append(f"{label}: executor {plan.executor!r}")
        got = plan_digest(plan)
        for name in sorted(set(got) | set(pinned["plan"])):
            if got.get(name) != pinned["plan"].get(name):
                problems.append(f"{label}: plan array {name!r} differs")
        for xname, x in golden_xs(i, p.matrix.shape[1]).items():
            ref = pinned["runs"][xname]
            for who, run in (("plan.apply", plan.apply(x)), ("run_partition", run_partition(p, x))):
                got = run_digest(run)
                for field in ("y_sha256", "ledger", "phases"):
                    if got[field] != ref[field]:
                        problems.append(f"{label}: {who} {field} differs at x={xname}")
    return problems


if __name__ == "__main__":
    if "--write" in sys.argv[1:]:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        found = check()
        print("\n".join(found) or "golden runtime digests match")
        raise SystemExit(1 if found else 0)
