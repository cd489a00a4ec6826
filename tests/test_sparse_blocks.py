"""Unit tests for the vector-partition-induced block structure."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import PartitionError
from repro.sparse.blocks import BlockStructure
from repro.sparse.coo import canonical_coo
from tests.comm_oracle import rowwise_volume


def _simple():
    # 4x4, parts: rows [0,0,1,1], cols [0,1,1,0]
    a = sp.coo_matrix(
        (np.ones(6), ([0, 0, 1, 2, 3, 3], [0, 1, 2, 3, 0, 3])), shape=(4, 4)
    )
    m = canonical_coo(a)
    return BlockStructure(
        m.row, m.col, np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1]), 2
    )


def test_block_membership():
    bs = _simple()
    # (0,0) y=0,x=0 -> block (0,0); (0,1) -> (0,1); (1,2) -> (0,1)
    assert bs.block_nnz_count(0, 0) == 1
    assert bs.block_nnz_count(0, 1) == 2
    # (2,3) y=1 x=0 -> (1,0); (3,0) -> (1,0); (3,3) -> (1,0)
    assert bs.block_nnz_count(1, 0) == 3
    assert bs.block_nnz_count(1, 1) == 0


def test_nonempty_offdiagonal_blocks():
    bs = _simple()
    assert sorted(bs.nonempty_offdiagonal_blocks()) == [(0, 1), (1, 0)]


def test_nhat_mhat():
    bs = _simple()
    assert bs.nhat(0, 1) == 2  # cols {1, 2}
    assert bs.mhat(0, 1) == 2  # rows {0, 1}
    assert bs.nhat(1, 0) == 2  # cols {0, 3}
    assert bs.mhat(1, 0) == 2  # rows {2, 3}


def test_rowwise_volume_equals_manual():
    bs = _simple()
    assert rowwise_volume(bs) == bs.nhat(0, 1) + bs.nhat(1, 0)


def test_loads():
    bs = _simple()
    assert bs.rowwise_loads().tolist() == [3, 3]
    assert bs.columnwise_loads().tolist() == [4, 2]
    assert bs.diagonal_loads().sum() == 1  # only (0,0) is in a diagonal block


def test_empty_block_indices():
    bs = _simple()
    assert bs.block_nnz_indices(1, 1).size == 0


def test_part_id_validation():
    with pytest.raises(PartitionError):
        BlockStructure(
            np.array([0]), np.array([0]), np.array([5]), np.array([0]), 2
        )


def test_index_bounds_validation():
    with pytest.raises(PartitionError):
        BlockStructure(
            np.array([3]), np.array([0]), np.array([0]), np.array([0, 0]), 1
        )


def test_from_matrix_roundtrip(small_square, rng):
    k = 4
    x = rng.integers(0, k, small_square.shape[1])
    y = rng.integers(0, k, small_square.shape[0])
    bs = BlockStructure.from_matrix(small_square, x, y, k)
    # every nonzero is in exactly one block
    total = sum(
        bs.block_nnz_count(l, c) for l in range(k) for c in range(k)
    )
    assert total == small_square.nnz


def test_block_indices_consistent_with_parts(small_square, rng):
    k = 3
    x = rng.integers(0, k, small_square.shape[1])
    y = rng.integers(0, k, small_square.shape[0])
    bs = BlockStructure.from_matrix(small_square, x, y, k)
    for l in range(k):
        for c in range(k):
            idx = bs.block_nnz_indices(l, c)
            assert np.all(y[bs.rows[idx]] == l)
            assert np.all(x[bs.cols[idx]] == c)
