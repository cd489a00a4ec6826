"""Coarse Dulmage–Mendelsohn decomposition: labels and result type.

The coarse DM decomposition of a (sub)matrix pattern splits its
nonempty rows and columns into

- a **horizontal** block ``H`` with ``m̂(H) < n̂(H)`` (unless empty),
- a **square**     block ``S`` with ``m̂(S) = n̂(S)``,
- a **vertical**   block ``V`` with ``m̂(V) > n̂(V)`` (unless empty),

arranged in the block-upper-triangular form of the paper's Section II-B.
The decomposition is canonical: it is derived from *any* maximum
matching via alternating-path reachability (Pothen & Fan, 1990) and is
independent of which maximum matching is used.  The native
``repro_block_dm`` kernel computes it for a whole batch of blocks
(:func:`repro.dm.batch.batched_block_dm`); this module holds the label
constants and the per-block view :class:`CoarseDM` of its result.

Key structural facts used by the s2D optimality argument:

- every nonzero in a column of ``H`` lies in a row of ``H``;
- every nonzero in a row of ``V`` lies in a column of ``V``;
- ``m̂(H) + m̂(S) + n̂(V)`` equals the maximum-matching size, which by
  König's theorem is the minimum number of rows+columns covering all
  nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CoarseDM", "HORIZONTAL", "SQUARE", "VERTICAL"]

HORIZONTAL, SQUARE, VERTICAL = 0, 1, 2


@dataclass(frozen=True)
class CoarseDM:
    """Result of the coarse DM decomposition of a sparse pattern.

    All ``*_ids`` arrays hold the original (global) indices of the
    nonempty rows/columns; ``row_label`` / ``col_label`` assign each of
    them to ``HORIZONTAL`` (0), ``SQUARE`` (1) or ``VERTICAL`` (2).
    """

    row_ids: np.ndarray
    col_ids: np.ndarray
    row_label: np.ndarray
    col_label: np.ndarray
    matching_size: int

    @property
    def h_rows(self) -> np.ndarray:
        """Global row ids of the horizontal block."""
        return self.row_ids[self.row_label == HORIZONTAL]

    @property
    def h_cols(self) -> np.ndarray:
        """Global column ids of the horizontal block."""
        return self.col_ids[self.col_label == HORIZONTAL]

    @property
    def s_rows(self) -> np.ndarray:
        return self.row_ids[self.row_label == SQUARE]

    @property
    def s_cols(self) -> np.ndarray:
        return self.col_ids[self.col_label == SQUARE]

    @property
    def v_rows(self) -> np.ndarray:
        return self.row_ids[self.row_label == VERTICAL]

    @property
    def v_cols(self) -> np.ndarray:
        return self.col_ids[self.col_label == VERTICAL]

    def mhat_h(self) -> int:
        """``m̂(H)``: rows of the horizontal block."""
        return int(np.count_nonzero(self.row_label == HORIZONTAL))

    def nhat_h(self) -> int:
        """``n̂(H)``: columns of the horizontal block."""
        return int(np.count_nonzero(self.col_label == HORIZONTAL))

    def volume_reduction(self) -> int:
        """``λ⁻ = n̂(H) − m̂(H)``, the savings of alternative (A2) over
        (A1) for this block (Section IV-B).  Always ≥ 0."""
        return self.nhat_h() - self.mhat_h()

    def horizontal_nnz_mask(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Boolean mask over ``(rows, cols)`` nonzeros selecting those in
        the ``H`` block, i.e. whose column belongs to ``h_cols``.

        By DM structure these nonzeros all lie in ``h_rows``, so the
        mask equals membership of the *nonzero* in ``H``.
        """
        return np.isin(np.asarray(cols), self.h_cols)
