"""Block structure induced on a matrix by input/output vector partitions.

Given a K-way partition of the input vector ``x`` (one part id per
column) and of the output vector ``y`` (one part id per row), the
nonzeros of ``A`` fall into a K×K logical block structure

    A_{ℓk} = { a_ij : y_i ∈ y^{(ℓ)}, x_j ∈ x^{(k)} }

(Section III of the paper).  Everything the s2D machinery needs —
which off-diagonal blocks are nonempty, the number of nonempty rows
``m̂`` and columns ``n̂`` of each block, the nonzero membership of each
block — is computed here once, vectorised, and reused.

Two access styles coexist:

- the **batched kernel**: :meth:`BlockStructure.block_stats` computes
  nnz, ``n̂`` and ``m̂`` for *every* nonempty block in one sort-based
  pass (:class:`BlockStats`); this is the hot path every higher layer
  (s2D, DM batching, volume bookkeeping, the engine) builds on;
- the **per-block accessors** (``block_nnz_indices``, ``nhat`` …):
  convenience views over the same pre-sorted buffers, kept for tests
  and exploratory use.  The seed's one-``np.unique``-per-block
  computation survives only as its frozen outputs
  (``tests/fixtures/block_dm_seed.npz``), which the batched kernel is
  pinned against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.errors import PartitionError
from repro.kernels import grouped_distinct_counts
from repro.sparse.coo import coo_triplets

__all__ = [
    "BlockStructure",
    "BlockStats",
    "grouped_distinct_counts",  # re-exported from repro.kernels
]


def _key_position(keys: np.ndarray, nparts: int, row_block: int, col_block: int) -> int:
    """Position of block ``(ℓ, k)`` in a sorted block-key array, or −1."""
    key = row_block * nparts + col_block
    pos = int(np.searchsorted(keys, key))
    if pos < keys.size and keys[pos] == key:
        return pos
    return -1


@dataclass(frozen=True)
class BlockStats:
    """Batched per-block statistics of a K×K block structure.

    Arrays are aligned: entry ``i`` describes the block with key
    ``keys[i] = ℓ·K + k``.  Only nonempty blocks appear, sorted by key
    (row-block major).  ``indptr`` spans index the *block-sorted*
    nonzero order of the owning :class:`BlockStructure`.
    """

    nparts: int
    keys: np.ndarray
    indptr: np.ndarray
    nnz: np.ndarray
    nhat: np.ndarray
    mhat: np.ndarray

    @property
    def nblocks(self) -> int:
        """Number of nonempty blocks."""
        return int(self.keys.size)

    @property
    def row_blocks(self) -> np.ndarray:
        """Row-block index ``ℓ`` of each nonempty block."""
        return self.keys // self.nparts

    @property
    def col_blocks(self) -> np.ndarray:
        """Column-block index ``k`` of each nonempty block."""
        return self.keys % self.nparts

    @property
    def offdiagonal_mask(self) -> np.ndarray:
        """Boolean mask over the nonempty blocks selecting ``ℓ ≠ k``."""
        return self.row_blocks != self.col_blocks

    def index_of(self, row_block: int, col_block: int) -> int:
        """Position of block ``(ℓ, k)`` in the stats arrays, or −1."""
        return _key_position(self.keys, self.nparts, row_block, col_block)

    def _field_of(self, arr: np.ndarray, row_block: int, col_block: int) -> int:
        pos = self.index_of(row_block, col_block)
        return int(arr[pos]) if pos >= 0 else 0

    def nnz_of(self, row_block: int, col_block: int) -> int:
        return self._field_of(self.nnz, row_block, col_block)

    def nhat_of(self, row_block: int, col_block: int) -> int:
        return self._field_of(self.nhat, row_block, col_block)

    def mhat_of(self, row_block: int, col_block: int) -> int:
        return self._field_of(self.mhat, row_block, col_block)


@dataclass
class BlockStructure:
    """The K×K block view of a sparse matrix under a vector partition.

    Parameters
    ----------
    rows, cols:
        Canonical COO triplet coordinates of the matrix (values are not
        needed for structural analysis).
    x_part:
        ``x_part[j]`` is the processor owning input entry ``x_j``
        (length ``n``).
    y_part:
        ``y_part[i]`` is the processor owning output entry ``y_i``
        (length ``m``).
    nparts:
        The number of processors K.

    Attributes
    ----------
    row_part_of_nnz, col_part_of_nnz:
        Per-nonzero owner of the row side (``π(y_i)``) and the column
        side (``π(x_j)``).
    order:
        Stable permutation sorting the triplets by block key
        ``ℓ·K + k``; every batched kernel slices this one buffer.
    block_keys, block_indptr:
        CSR-style span table over ``order``: the nonzeros of the block
        with key ``block_keys[i]`` occupy
        ``order[block_indptr[i]:block_indptr[i+1]]``.
    """

    rows: np.ndarray
    cols: np.ndarray
    x_part: np.ndarray
    y_part: np.ndarray
    nparts: int
    row_part_of_nnz: np.ndarray = field(init=False)
    col_part_of_nnz: np.ndarray = field(init=False)
    order: np.ndarray = field(init=False, repr=False)
    block_keys: np.ndarray = field(init=False, repr=False)
    block_indptr: np.ndarray = field(init=False, repr=False)
    _block_ids_sorted: np.ndarray = field(init=False, repr=False)
    _stats: BlockStats | None = field(init=False, repr=False, default=None)

    @classmethod
    def from_matrix(cls, a, x_part, y_part, nparts: int) -> "BlockStructure":
        """Build the block structure of matrix ``a`` (any scipy-sparse-able)."""
        rows, cols, _ = coo_triplets(a)
        return cls(rows, cols, np.asarray(x_part), np.asarray(y_part), nparts)

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.x_part = np.asarray(self.x_part, dtype=np.int64)
        self.y_part = np.asarray(self.y_part, dtype=np.int64)
        k = self.nparts
        if k <= 0:
            raise PartitionError(f"nparts must be positive, got {k}")
        for name, arr in (("x_part", self.x_part), ("y_part", self.y_part)):
            if arr.size and (arr.min() < 0 or arr.max() >= k):
                raise PartitionError(f"{name} contains part ids outside [0, {k})")
        if self.rows.size:
            if self.rows.max() >= self.y_part.size:
                raise PartitionError("row index exceeds y_part length")
            if self.cols.max() >= self.x_part.size:
                raise PartitionError("col index exceeds x_part length")
        self.row_part_of_nnz = self.y_part[self.rows]
        self.col_part_of_nnz = self.x_part[self.cols]
        block_ids = self.row_part_of_nnz * k + self.col_part_of_nnz
        self.order = np.argsort(block_ids, kind="stable")
        self._block_ids_sorted = block_ids[self.order]
        self.block_keys, starts = np.unique(self._block_ids_sorted, return_index=True)
        self.block_indptr = np.append(starts, self._block_ids_sorted.size).astype(
            np.int64
        )
        self._stats = None

    # ------------------------------------------------------------------
    # Block membership
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Total number of nonzeros."""
        return int(self.rows.size)

    @property
    def nrows(self) -> int:
        """Number of matrix rows (= length of ``y_part``)."""
        return int(self.y_part.size)

    @property
    def ncols(self) -> int:
        """Number of matrix columns (= length of ``x_part``)."""
        return int(self.x_part.size)

    def _block_pos(self, row_block: int, col_block: int) -> int:
        return _key_position(self.block_keys, self.nparts, row_block, col_block)

    def block_nnz_indices(self, row_block: int, col_block: int) -> np.ndarray:
        """Indices (into the canonical triplet arrays) of nonzeros in block
        ``A_{row_block, col_block}``.  Empty array if the block is empty."""
        pos = self._block_pos(row_block, col_block)
        if pos < 0:
            return np.empty(0, dtype=np.int64)
        return self.order[self.block_indptr[pos] : self.block_indptr[pos + 1]]

    def nonempty_offdiagonal_blocks(self) -> list[tuple[int, int]]:
        """All ``(ℓ, k)`` with ``ℓ != k`` and ``A_{ℓk}`` nonempty.

        These are exactly the processor pairs that exchange a message in
        the single-phase s2D SpMV (and in 1D rowwise SpMV with the same
        vector partition) — first observation of Section III.
        """
        k = self.nparts
        ell = self.block_keys // k
        kk = self.block_keys % k
        off = ell != kk
        return list(zip(ell[off].tolist(), kk[off].tolist()))

    def block_nnz_count(self, row_block: int, col_block: int) -> int:
        """Number of nonzeros of block ``A_{row_block, col_block}``."""
        return int(self.block_nnz_indices(row_block, col_block).size)

    # ------------------------------------------------------------------
    # n̂ / m̂ statistics (eq. 3 ingredients)
    # ------------------------------------------------------------------

    def block_stats(self) -> BlockStats:
        """Batched nnz / ``n̂`` / ``m̂`` of every nonempty block.

        One linear incidence pass over all nonzeros replaces the
        per-block ``np.unique`` calls of the seed code; the result is
        cached on the structure (it is immutable once built).
        """
        if self._stats is None:
            nnz = np.diff(self.block_indptr)
            nblocks = int(self.block_keys.size)
            # Dense block index per nonzero (blocks are contiguous in the
            # sorted order), then a linear COO→CSR incidence pass per
            # axis: duplicate (block, line) pairs collapse, so the CSR
            # row lengths are exactly the distinct-line counts.  This is
            # bucket placement, not a comparison sort — O(nnz + K²).
            blk = np.repeat(np.arange(nblocks, dtype=np.int64), nnz)
            ones = np.ones(blk.size, dtype=np.int32)
            ncounts = np.diff(
                sp.csr_matrix(
                    (ones, (blk, self.cols[self.order])),
                    shape=(max(nblocks, 1), max(self.ncols, 1)),
                ).indptr
            )[:nblocks]
            mcounts = np.diff(
                sp.csr_matrix(
                    (ones, (blk, self.rows[self.order])),
                    shape=(max(nblocks, 1), max(self.nrows, 1)),
                ).indptr
            )[:nblocks]
            self._stats = BlockStats(
                nparts=self.nparts,
                keys=self.block_keys,
                indptr=self.block_indptr,
                nnz=nnz.astype(np.int64),
                nhat=ncounts.astype(np.int64),
                mhat=mcounts.astype(np.int64),
            )
        return self._stats

    def block_nonempty_cols(self, row_block: int, col_block: int) -> np.ndarray:
        """Distinct column indices with a nonzero in the block (``n̂`` set)."""
        idx = self.block_nnz_indices(row_block, col_block)
        return np.unique(self.cols[idx])

    def block_nonempty_rows(self, row_block: int, col_block: int) -> np.ndarray:
        """Distinct row indices with a nonzero in the block (``m̂`` set)."""
        idx = self.block_nnz_indices(row_block, col_block)
        return np.unique(self.rows[idx])

    def nhat(self, row_block: int, col_block: int) -> int:
        """``n̂(A_{ℓk})``: number of nonempty columns of the block."""
        return self.block_stats().nhat_of(row_block, col_block)

    def mhat(self, row_block: int, col_block: int) -> int:
        """``m̂(A_{ℓk})``: number of nonempty rows of the block."""
        return self.block_stats().mhat_of(row_block, col_block)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def rowwise_volume(self) -> int:
        """Total communication volume of the pure 1D rowwise partition.

        With every off-diagonal block kept on its row side (alternative
        A1 for all blocks), processor ``P_k`` sends ``x_j`` to ``P_ℓ``
        for every nonempty column of ``A_{ℓk}``; the total volume is
        ``Σ_{ℓ≠k} n̂(A_{ℓk})``.
        """
        st = self.block_stats()
        return int(st.nhat[st.offdiagonal_mask].sum())

    def diagonal_loads(self) -> np.ndarray:
        """Per-processor nonzero counts of the diagonal blocks ``A_kk``."""
        loads = np.zeros(self.nparts, dtype=np.int64)
        mask = self.row_part_of_nnz == self.col_part_of_nnz
        np.add.at(loads, self.row_part_of_nnz[mask], 1)
        return loads

    def rowwise_loads(self) -> np.ndarray:
        """Per-processor nonzero counts under pure 1D rowwise assignment
        (every nonzero to its row owner): ``W_k = |A_{k*}|``."""
        loads = np.zeros(self.nparts, dtype=np.int64)
        np.add.at(loads, self.row_part_of_nnz, 1)
        return loads

    def columnwise_loads(self) -> np.ndarray:
        """Per-processor nonzero counts under pure 1D columnwise assignment."""
        loads = np.zeros(self.nparts, dtype=np.int64)
        np.add.at(loads, self.col_part_of_nnz, 1)
        return loads

