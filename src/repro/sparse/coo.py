"""Canonical COO triplet handling.

All partitioning code in this library operates on *triplet arrays*
``(rows, cols, vals)`` in a canonical order (row-major, deduplicated,
no explicit zeros).  Keeping one canonical form means a nonzero's index
in the triplet arrays is a stable identity, which lets nonzero
partitions be plain integer arrays aligned with the triplets.

:func:`canonical_coo` is called by every layer (engine, model builders,
``SpMVPartition``, Algorithm 1), so it is cheap on the common input, a
matrix that is already canonical: one O(nnz) check, then the arrays are
wrapped without sorting.  Only other input pays for one stable sort, in
linear time.
Every result's ``row`` / ``col`` / ``data`` are read-only, so a result
passed back in is shared as is: the engine's matrix and every
partition's matrix hold one set of arrays, and an in-place write into
them raises instead of silently changing memoized state.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.kernels import stable_order

__all__ = ["canonical_coo", "coo_triplets", "nnz_per_row", "nnz_per_col"]


def _is_canonical(row: np.ndarray, col: np.ndarray, data: np.ndarray) -> bool:
    """True when the ``(row, col)`` keys strictly increase (row-major,
    no duplicates) and no stored value ``== 0``."""
    r0, r1, c0, c1 = row[:-1], row[1:], col[:-1], col[1:]
    increasing = (r1 > r0) | ((r1 == r0) & (c1 > c0))
    return bool(increasing.all() and (data != 0).all())


def _sum_sorted(row: np.ndarray, col: np.ndarray, data: np.ndarray, shape):
    """Sort row-major, sum duplicates, drop zeros: two stable
    ``stable_order`` calls, by column and then by row (the order of
    ``np.lexsort((col, row))``).

    Stability keeps duplicates in input order, so each run sums in the
    same order as ``scipy.sparse.coo_matrix.sum_duplicates``.
    """
    order = stable_order(col, shape[1])
    order = order[stable_order(row[order], shape[0])]
    row, col, data = row[order], col[order], data[order]
    if data.size:
        first = np.empty(data.size, dtype=bool)
        first[0] = True
        np.not_equal(row[1:], row[:-1], out=first[1:])
        first[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(first)
        row, col = row[starts], col[starts]
        data = np.add.reduceat(data, starts, dtype=data.dtype)
    keep = data != 0
    return row[keep], col[keep], data[keep]


def _read_only(x: np.ndarray, inputs) -> np.ndarray:
    """``x`` made read-only; a writeable ``x`` that may share memory
    with one of ``inputs`` is copied first, so the caller's arrays keep
    their flags."""
    if x.flags.writeable:
        if any(np.may_share_memory(x, y) for y in inputs):
            x = x.copy()
        x.flags.writeable = False
    return x


def canonical_coo(a) -> sp.coo_matrix:
    """Return ``a`` as a canonical :class:`scipy.sparse.coo_matrix`.

    Canonical means: duplicate entries summed, explicit zeros dropped,
    and triplets sorted row-major (row, then column).

    Input that is already canonical is checked in O(nnz) and wrapped
    without sorting; other input is sorted once (stable, so duplicates
    sum in input order) and counted as ``sparse.canonical_sorts`` in the
    ambient trace.  The result is always a new matrix whose ``row`` /
    ``col`` / ``data`` are read-only: arrays of ``a`` that are already
    read-only are shared, writeable ones are copied once.  The input is
    never modified, flags included.
    """
    m = sp.coo_matrix(a)
    row, col, data = m.row, m.col, m.data
    if not _is_canonical(row, col, data):
        obs.add("sparse.canonical_sorts")
        row, col, data = _sum_sorted(row, col, data, m.shape)
    out = sp.coo_matrix((data, (row, col)), shape=m.shape)
    inputs = (m.row, m.col, m.data)
    out.row = _read_only(out.row, inputs)
    out.col = _read_only(out.col, inputs)
    out.data = _read_only(out.data, inputs)
    return out


def coo_triplets(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return canonical ``(rows, cols, vals)`` triplet arrays for ``a``."""
    m = canonical_coo(a)
    return m.row.astype(np.int64), m.col.astype(np.int64), m.data


def nnz_per_row(a) -> np.ndarray:
    """Number of stored nonzeros in each row of ``a``."""
    m = canonical_coo(a)
    return np.bincount(m.row, minlength=m.shape[0]).astype(np.int64)


def nnz_per_col(a) -> np.ndarray:
    """Number of stored nonzeros in each column of ``a``."""
    m = canonical_coo(a)
    return np.bincount(m.col, minlength=m.shape[1]).astype(np.int64)
