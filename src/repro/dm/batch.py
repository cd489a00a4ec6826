"""Batched coarse DM of the blocks of a :class:`BlockStructure`.

The s2D machinery needs the coarse DM decomposition of *every*
nonempty off-diagonal block of the K×K structure.  The shared
preprocessing runs as a handful of global sorted passes over the
selected blocks' nonzeros:

- one stable sort of ``block·stride + row`` keys yields, for every
  block at once, its sorted distinct row ids, each nonzero's row pair
  and every block's row-major CSR adjacency as a contiguous slice of a
  single buffer (ditto for the columns).

The combinatorial part — a maximum matching and the alternating-path
labels of :func:`repro.dm.decomposition.coarse_labels` for each block —
is one ``repro_block_dm`` call over the whole batch when
:func:`repro.native.resolve_backend` picks the native backend, and
otherwise the NumPy reference loop (per block :func:`hopcroft_karp` and
:func:`coarse_labels`), which is also the fallback without a compiler.
The two backends may find different maximum matchings.  That changes
nothing: a column is horizontal iff *some* maximum matching leaves it
unmatched, the rows of ``H`` are the neighbours of its columns (``V``
likewise from the rows), and every maximum matching has the same size
(Pothen & Fan, "Computing the block triangular form of a sparse
matrix", ACM TOMS 1990).  So labels, H-masks and matching sizes are
identical on both backends.

The result is one immutable struct-of-arrays :class:`BlockDMTable`;
the engine memoizes it and every s2D construction reads it as is.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro import obs
from repro.dm.decomposition import HORIZONTAL, CoarseDM, coarse_labels
from repro.dm.matching import hopcroft_karp
from repro.native import get_kernels, resolve_backend
from repro.native import ops as native_ops
from repro.sparse.blocks import BlockStructure

__all__ = ["BlockDM", "BlockDMTable", "batched_block_dm"]


def _sorted_groups(keys: np.ndarray):
    """One stable sort serving four derived views of ``keys``.

    Returns ``(order, uniq, inverse, counts)`` — the stable sorting
    permutation, the sorted distinct keys, each element's index into
    ``uniq``, and the multiplicity of each distinct key.  Equivalent to
    ``np.argsort(keys, kind="stable")`` plus ``np.unique(keys,
    return_inverse=True, return_counts=True)``, but pays for a single
    sort instead of two.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    n = sorted_keys.size
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    uniq = sorted_keys[new]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, n))
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order, uniq, inverse, counts


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets ``[0, c0, c0 + c1, …]`` of ``counts``."""
    off = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off


@dataclass(frozen=True)
class BlockDM:
    """Coarse DM decomposition of one block ``A_{ℓk}`` (a view of one
    row of a :class:`BlockDMTable`, for tests and exploratory use).

    ``nnz_idx`` are the block's nonzero indices into the canonical
    triplet arrays (block-sorted order, identical to
    ``BlockStructure.block_nnz_indices(ℓ, k)``); ``h_mask`` flags the
    nonzeros of the horizontal sub-block ``H`` among them.
    """

    row_part: int
    col_part: int
    nnz_idx: np.ndarray
    dm: CoarseDM
    h_mask: np.ndarray

    @property
    def h_nnz(self) -> np.ndarray:
        """Triplet indices of the ``H`` nonzeros (alternative A2 moves these)."""
        return self.nnz_idx[self.h_mask]


@dataclass(frozen=True, eq=False)
class BlockDMTable:
    """Coarse DM of a batch of blocks as flat, read-only arrays.

    Blocks are ordered by key ``ℓ·K + k``.  Per block ``i``:
    ``row_part``/``col_part`` (``ℓ``, ``k``), ``matching_size``,
    ``lambda_minus`` (``λ⁻ = n̂(H) − m̂(H)``, the volume alternative A2
    saves) and ``h_size`` (``|H|``, the nonzeros A2 moves).  Spans into
    the concatenated arrays:

    - ``nnz_idx[nnz_off[i]:nnz_off[i+1]]`` are the block's triplet
      indices in block-sorted order, and ``h_mask`` over the same span
      flags those of ``H``;
    - ``row_ids[row_off[i]:row_off[i+1]]`` are its nonempty rows
      (ascending) with their H/S/V ``row_label``; likewise the columns.
    """

    nparts: int
    row_part: np.ndarray
    col_part: np.ndarray
    matching_size: np.ndarray
    lambda_minus: np.ndarray
    h_size: np.ndarray
    nnz_off: np.ndarray
    nnz_idx: np.ndarray
    h_mask: np.ndarray
    row_off: np.ndarray
    row_ids: np.ndarray
    row_label: np.ndarray
    col_off: np.ndarray
    col_ids: np.ndarray
    col_label: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def __len__(self) -> int:
        return int(self.row_part.size)

    def __getitem__(self, i: int) -> BlockDM:
        if not 0 <= i < len(self):
            raise IndexError(f"block {i} out of range for {len(self)} blocks")
        r = slice(self.row_off[i], self.row_off[i + 1])
        c = slice(self.col_off[i], self.col_off[i + 1])
        s = slice(self.nnz_off[i], self.nnz_off[i + 1])
        return BlockDM(
            row_part=int(self.row_part[i]),
            col_part=int(self.col_part[i]),
            nnz_idx=self.nnz_idx[s],
            dm=CoarseDM(
                row_ids=self.row_ids[r],
                col_ids=self.col_ids[c],
                row_label=self.row_label[r],
                col_label=self.col_label[c],
                matching_size=int(self.matching_size[i]),
            ),
            h_mask=self.h_mask[s],
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def h_nnz(self) -> np.ndarray:
        """Triplet indices of every block's ``H`` nonzeros, block after
        block (block ``i`` contributes ``h_size[i]`` of them)."""
        return self.nnz_idx[self.h_mask]


def _labels_numpy(row_off, col_off, rptr, adj, cptr, cadj):
    """The reference per-block loop of :func:`batched_block_dm` (and the
    fallback without a compiler): Hopcroft–Karp and
    :func:`coarse_labels` on views of the shared buffers."""
    nb = row_off.size - 1
    row_label = np.empty(rptr.size - 1, dtype=np.int8)
    col_label = np.empty(cptr.size - 1, dtype=np.int8)
    matching_size = np.empty(nb, dtype=np.int64)
    for i in range(nb):
        r0, r1 = int(row_off[i]), int(row_off[i + 1])
        c0, c1 = int(col_off[i]), int(col_off[i + 1])
        e0, e1 = int(rptr[r0]), int(rptr[r1])
        indptr = rptr[r0 : r1 + 1] - e0
        cindptr = cptr[c0 : c1 + 1] - e0
        match_row, match_col = hopcroft_karp(indptr, adj[e0:e1], r1 - r0, c1 - c0)
        row_label[r0:r1], col_label[c0:c1] = coarse_labels(
            indptr, adj[e0:e1], cindptr, cadj[e0:e1], match_row, match_col
        )
        matching_size[i] = np.count_nonzero(match_row != -1)
    return row_label, col_label, matching_size


def batched_block_dm(bs: BlockStructure, offdiagonal_only: bool = True) -> BlockDMTable:
    """Coarse DM of every nonempty (off-diagonal) block, batched.

    Blocks are ordered by block key ``ℓ·K + k`` — the order
    :meth:`BlockStructure.nonempty_offdiagonal_blocks` yields.
    """
    stats = bs.block_stats()
    row_part = stats.row_blocks
    col_part = stats.col_blocks
    sel = row_part != col_part if offdiagonal_only else np.ones(stats.nblocks, dtype=bool)
    row_part, col_part = row_part[sel], col_part[sel]
    nnz, mhat, nhat = stats.nnz[sel], stats.mhat[sel], stats.nhat[sel]
    nb = int(row_part.size)
    obs.add("dm.blocks", nb)
    nnz_idx = bs.order[np.repeat(sel, stats.nnz)]
    nnz_off, row_off, col_off = _offsets(nnz), _offsets(mhat), _offsets(nhat)
    blk = np.arange(nb, dtype=np.int64)
    blk_of_nnz = np.repeat(blk, nnz)
    blk_of_row = np.repeat(blk, mhat)
    blk_of_col = np.repeat(blk, nhat)

    if nb == 0:
        row_ids = col_ids = np.empty(0, dtype=np.int64)
        row_label = col_label = np.empty(0, dtype=np.int8)
        matching_size = np.empty(0, dtype=np.int64)
        h_mask = np.empty(0, dtype=bool)
    else:
        # Distinct (block, row) pairs: the keys are block-major, so the
        # sorted distinct keys concatenate every block's sorted rows and
        # the inverse gives each nonzero's global pair index.  The same
        # stable sort orders each block's edges row-major (it permutes
        # only within block spans): every block's adjacency is a slice.
        nrows, ncols = np.int64(bs.nrows), np.int64(bs.ncols)
        order_r, kr_u, r_pair, r_counts = _sorted_groups(
            blk_of_nnz * nrows + bs.rows[nnz_idx]
        )
        order_c, kc_u, c_pair, c_counts = _sorted_groups(
            blk_of_nnz * ncols + bs.cols[nnz_idx]
        )
        row_ids = kr_u - blk_of_row * nrows
        col_ids = kc_u - blk_of_col * ncols
        adj = (c_pair - col_off[blk_of_nnz])[order_r]
        cadj = (r_pair - row_off[blk_of_nnz])[order_c]
        rptr, cptr = _offsets(r_counts), _offsets(c_counts)
        if resolve_backend() == "native":
            row_label, col_label, matching_size = native_ops.block_dm(
                get_kernels(), row_off=row_off, col_off=col_off,
                rptr=rptr, adj=adj, cptr=cptr, cadj=cadj,
            )
        else:
            row_label, col_label, matching_size = _labels_numpy(
                row_off, col_off, rptr, adj, cptr, cadj
            )
        h_mask = col_label[c_pair] == HORIZONTAL

    h_rows = np.bincount(blk_of_row[row_label == HORIZONTAL], minlength=nb)
    h_cols = np.bincount(blk_of_col[col_label == HORIZONTAL], minlength=nb)
    return BlockDMTable(
        nparts=bs.nparts,
        row_part=row_part,
        col_part=col_part,
        matching_size=matching_size,
        lambda_minus=(h_cols - h_rows).astype(np.int64),
        h_size=np.bincount(blk_of_nnz[h_mask], minlength=nb).astype(np.int64),
        nnz_off=nnz_off,
        nnz_idx=nnz_idx,
        h_mask=h_mask,
        row_off=row_off,
        row_ids=row_ids,
        row_label=row_label,
        col_off=col_off,
        col_ids=col_ids,
        col_label=col_label,
    )
