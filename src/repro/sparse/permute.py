"""Permuted / block views of a partitioned matrix (Figure 1 support).

The paper's Figure 1 shows a 10×13 matrix symmetrically permuted so
that rows owned by the same processor (and columns owned by the same
processor) are contiguous, with each nonzero drawn in the colour of the
processor it is assigned to.  :func:`spy_string` renders the same
picture as ASCII, one digit per nonzero giving its owner.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import stable_order
from repro.sparse.coo import coo_triplets

__all__ = ["block_permutation", "spy_string"]


def block_permutation(part: np.ndarray) -> np.ndarray:
    """Permutation grouping indices by part id (stable within a part).

    Returns ``perm`` such that ``perm[new_position] = old_index``;
    entries of part 0 come first, then part 1, etc.
    """
    part = np.asarray(part)
    return stable_order(part, int(part.max()) + 1 if part.size else 0)


def spy_string(a, nnz_part: np.ndarray, x_part=None, y_part=None) -> str:
    """ASCII rendering of a partitioned matrix in Figure-1 style.

    Each nonzero is printed as the (1-based) id of its owning
    processor; dots are structural zeros.  If ``x_part``/``y_part`` are
    given, rows and columns are permuted into contiguous part blocks and
    separator markers are placed between blocks.
    """
    rows, cols, _ = coo_triplets(a)
    nnz_part = np.asarray(nnz_part)
    m, n = a.shape

    if y_part is not None:
        rperm = block_permutation(np.asarray(y_part))
        rinv = np.empty(m, dtype=np.int64)
        rinv[rperm] = np.arange(m)
        y_sorted = np.asarray(y_part)[rperm]
    else:
        rinv = np.arange(m)
        y_sorted = None
    if x_part is not None:
        cperm = block_permutation(np.asarray(x_part))
        cinv = np.empty(n, dtype=np.int64)
        cinv[cperm] = np.arange(n)
        x_sorted = np.asarray(x_part)[cperm]
    else:
        cinv = np.arange(n)
        x_sorted = None

    grid = [["." for _ in range(n)] for _ in range(m)]
    for r, c, p in zip(rinv[rows], cinv[cols], nnz_part):
        grid[r][c] = str(int(p) + 1)

    lines = []
    for i, row in enumerate(grid):
        if y_sorted is not None and i > 0 and y_sorted[i] != y_sorted[i - 1]:
            lines.append("-" * (2 * n - 1))
        cells = []
        for j, ch in enumerate(row):
            if x_sorted is not None and j > 0 and x_sorted[j] != x_sorted[j - 1]:
                cells.append("|")
            cells.append(ch)
        lines.append(" ".join(cells))
    return "\n".join(lines)
