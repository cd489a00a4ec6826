"""Frozen digests of the canonical matrices and their column-net models.

The fixture ``fixtures/canonical_inputs.json`` records, for every
tiny-scale ``table1_suite`` / ``table4_suite`` matrix plus a 2-D k-NN
mesh and a scale-12 R-MAT graph:

- the sha256 of the canonical ``row``, ``col`` and ``data`` arrays
  (:func:`repro.sparse.coo.canonical_coo` of the generated matrix);
- the sha256 of the column-net model's ``xpins``, ``pins``, ``xnets``
  and ``nets`` arrays.

Every digest covers the array's dtype and shape as well as its bytes,
so a change of canonical order, duplicate summation order or model
layout fails :func:`check` directly instead of only through the table
text.

Run as a script to check the fixture, or to rewrite it (only after a
deliberate, reviewed change of the canonical form)::

    PYTHONPATH=src python -m tests.golden_canonical
    PYTHONPATH=src python -m tests.golden_canonical --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "canonical_inputs.json"

#: Column-net model arrays that are pinned.
MODEL_ARRAYS = ("xpins", "pins", "xnets", "nets")


def instances() -> list[tuple[str, object]]:
    """``(label, matrix)`` for every pinned input."""
    from repro.generators.mesh import knn_mesh
    from repro.generators.rmat import rmat
    from repro.generators.suite import table1_suite, table4_suite

    out = []
    for suite_name, suite in (("table1", table1_suite), ("table4", table4_suite)):
        out += [(f"{suite_name}/{sm.name}", sm.matrix()) for sm in suite("tiny")]
    out.append(("knn_mesh(5000,12,dim=2,seed=1)", knn_mesh(5000, 12, dim=2, seed=1)))
    out.append(("rmat(12,edge_factor=8,seed=1)", rmat(12, edge_factor=8, seed=1)))
    return out


def _digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def matrix_digest(a) -> dict[str, str]:
    """Digests of the canonical triplets and the column-net model of ``a``."""
    from repro.hypergraph.models import column_net_model
    from repro.sparse.coo import canonical_coo

    m = canonical_coo(a)
    h = column_net_model(m)
    out = {name: _digest(getattr(m, name)) for name in ("row", "col", "data")}
    out.update({f"model.{name}": _digest(getattr(h, name)) for name in MODEL_ARRAYS})
    return out


def snapshot() -> dict:
    """The fixture content, computed from the current code."""
    return {label: matrix_digest(a) for label, a in instances()}


def check() -> list[str]:
    """Mismatches against the committed fixture (empty when every array
    is bit-identical)."""
    want = json.loads(FIXTURE.read_text())
    got = snapshot()
    problems = []
    for label in sorted(set(want) | set(got)):
        w, g = want.get(label, {}), got.get(label, {})
        for name in sorted(set(w) | set(g)):
            if w.get(name) != g.get(name):
                problems.append(f"{label}: {name} differs from {FIXTURE.name}")
    return problems


if __name__ == "__main__":
    if "--write" in sys.argv[1:]:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        found = check()
        print("\n".join(found) or "canonical input digests match")
        raise SystemExit(1 if found else 0)
