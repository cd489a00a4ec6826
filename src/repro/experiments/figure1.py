"""Figure 1: the worked 10×13 s2D example.

The paper's figure shows a 10×13 matrix under a 3-way s2D partition.
The full pattern is not machine-readable from the PDF, so this module
*reconstructs* a matrix that satisfies every statement the text makes
about the figure, and the test suite pins those statements:

- rows {1..4}, {5..7}, {8..10} and columns {1..4}, {5..7}, {8..13}
  belong to P1, P2, P3 (1-based, as in the paper);
- ``a_{2,5}`` and ``a_{3,5}`` are assigned to their *row* part P1, so
  P1 requires ``x_5`` from P2;
- ``a_{2,6}`` and ``a_{2,7}`` are assigned to their *column* part P2,
  which precomputes ``ȳ_2 = a_{2,6} x_6 + a_{2,7} x_7``;
- hence P2 sends the fused packet ``[x_5, ȳ_2]`` to P1 — one message,
  two words;
- P1 sends the partial ``ȳ_5`` to P2 due to ``a_{5,1}`` and
  ``a_{5,3}``;
- ``x_13`` is required only by P2;
- ``λ_{3→2} = 3``, from ``n̂(A^{(2)}_{2,3}) = 2`` and
  ``m̂(A^{(3)}_{2,3}) = 1``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.partition.types import SpMVPartition, VectorPartition
from repro.simulate.common import PHASES
from repro.simulate.singlephase import derive_single_phase
from repro.sparse.coo import canonical_coo
from repro.sparse.permute import spy_string

__all__ = ["figure1_matrix", "figure1_partition", "figure1_report"]

# 0-based (row, col, owner) triplets reconstructing the figure.
# Vector partition (0-based): rows 0-3 -> P0, 4-6 -> P1, 7-9 -> P2;
# columns 0-3 -> P0, 4-6 -> P1, 7-12 -> P2.
_ENTRIES = [
    # --- diagonal blocks (owners trivially their own part) ---
    (0, 0, 0), (0, 2, 0), (1, 1, 0), (2, 3, 0), (3, 0, 0), (3, 3, 0),
    (4, 5, 1), (5, 4, 1), (5, 6, 1), (6, 5, 1),
    (7, 7, 2), (7, 9, 2), (8, 8, 2), (9, 10, 2), (9, 11, 2),
    # --- block (P0 rows, P1 cols): a_{2,5}, a_{3,5} -> row part P0 ---
    (1, 4, 0), (2, 4, 0),
    # --- block (P0 rows, P1 cols): a_{2,6}, a_{2,7} -> column part P1 ---
    (1, 5, 1), (1, 6, 1),
    # --- block (P1 rows, P0 cols): a_{5,1}, a_{5,3} -> column part P0 ---
    (4, 0, 0), (4, 2, 0),
    # --- block (P1 rows, P2 cols) realising lambda_{3->2} = 3 ---
    # n̂(A^{(1)}_{1,2}) = 2: row-side nonzeros spanning columns {8, 12};
    # column 12 is x_13, touched only by P1 rows ("P2 is the only
    # processor that requires x_13" in the paper's 1-based narration).
    (5, 8, 1), (6, 8, 1), (5, 12, 1),
    # m̂(A^{(2)}_{1,2}) = 1: column-side nonzeros in the single row 4
    (4, 7, 2), (4, 9, 2),
    # --- a little P2-row / P0-col traffic so every pair communicates ---
    (8, 1, 2), (9, 3, 2),
]


def figure1_matrix() -> sp.coo_matrix:
    """The reconstructed 10×13 pattern with unit values."""
    rows = np.array([e[0] for e in _ENTRIES])
    cols = np.array([e[1] for e in _ENTRIES])
    vals = np.ones(len(_ENTRIES), dtype=np.float64)
    return canonical_coo(sp.coo_matrix((vals, (rows, cols)), shape=(10, 13)))


def figure1_partition() -> SpMVPartition:
    """The 3-way s2D partition of the figure (hand-assigned owners)."""
    m = figure1_matrix()
    y_part = np.array([0] * 4 + [1] * 3 + [2] * 3, dtype=np.int64)
    x_part = np.array([0] * 4 + [1] * 3 + [2] * 6, dtype=np.int64)
    lookup = {(r, c): p for r, c, p in _ENTRIES}
    nnz_part = np.array(
        [lookup[(int(i), int(j))] for i, j in zip(m.row, m.col)], dtype=np.int64
    )
    p = SpMVPartition(
        matrix=m,
        nnz_part=nnz_part,
        vectors=VectorPartition(x_part=x_part, y_part=y_part, nparts=3),
        kind="s2D",
        meta={"source": "figure 1 reconstruction"},
    )
    p.validate_s2d()
    return p


def figure1_report() -> str:
    """ASCII rendition of Figure 1 plus the worked message table."""
    p = figure1_partition()
    # λ_{k→ℓ} of each fused message, from the single-phase ledger.
    ledger = derive_single_phase(p).plan.ledger
    src, dst, words = ledger.phase_pairs(PHASES["single"][0])
    lam = dict(zip(zip(src.tolist(), dst.tolist()), words.tolist()))
    lines = [
        "Figure 1 (reconstruction): 10x13 matrix, 3-way s2D partition",
        "(digits are 1-based owning processors; rows/cols grouped by part)",
        "",
        spy_string(p.matrix, p.nnz_part, p.vectors.x_part, p.vectors.y_part),
        "",
        "Fused messages lambda_{k->l} (eq. 3):",
    ]
    for (src, dst), words in sorted(lam.items()):
        lines.append(f"  P{src + 1} -> P{dst + 1}: {words} words")
    lines.append("")
    lines.append(
        "Worked example of the text: P2 sends [x_5, y~_2] to P1 "
        f"(lambda_{{2->1}} = {lam.get((1, 0), 0)}); "
        f"lambda_{{3->2}} = {lam.get((2, 1), 0)}."
    )
    return "\n".join(lines)
