"""Coarse DM decomposition: structure, König bound, optimality support,
on the per-block oracle of ``tests/dm_oracle.py`` and the label
constants and :class:`CoarseDM` it shares with the package."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dm.decomposition import HORIZONTAL, SQUARE, VERTICAL, CoarseDM

from tests.dm_oracle import coarse_dm, minimum_cover_size


def test_square_identity():
    dm = coarse_dm(np.arange(4), np.arange(4))
    assert dm.matching_size == 4
    assert np.all(dm.row_label == SQUARE)
    assert np.all(dm.col_label == SQUARE)


def test_pure_horizontal():
    # 1 row, 3 columns: more cols than rows
    dm = coarse_dm(np.zeros(3, dtype=int), np.array([0, 1, 2]))
    assert dm.mhat_h() == 1
    assert dm.nhat_h() == 3
    assert dm.volume_reduction() == 2
    assert dm.v_rows.size == 0


def test_pure_vertical():
    dm = coarse_dm(np.array([0, 1, 2]), np.zeros(3, dtype=int))
    assert dm.v_rows.size == 3
    assert dm.v_cols.size == 1
    assert dm.h_rows.size == 0


def test_mixed_blocks():
    # H: row 0 with cols {0,1}; V: rows {1,2} sharing col 2
    rows = np.array([0, 0, 1, 2])
    cols = np.array([0, 1, 2, 2])
    dm = coarse_dm(rows, cols)
    assert set(dm.h_rows.tolist()) == {0}
    assert set(dm.h_cols.tolist()) == {0, 1}
    assert set(dm.v_rows.tolist()) == {1, 2}
    assert set(dm.v_cols.tolist()) == {2}


def test_global_ids_preserved():
    # indices far from 0 survive as global ids
    rows = np.array([100, 100])
    cols = np.array([7, 9])
    dm = coarse_dm(rows, cols)
    assert dm.row_ids.tolist() == [100]
    assert sorted(dm.col_ids.tolist()) == [7, 9]


def test_horizontal_mask_selects_h_columns():
    rows = np.array([0, 0, 1, 2])
    cols = np.array([0, 1, 2, 2])
    dm = coarse_dm(rows, cols)
    mask = dm.horizontal_nnz_mask(rows, cols)
    assert mask.tolist() == [True, True, False, False]


def _brute_min_cover(edges, row_ids, col_ids):
    """Exhaustive minimum row+column cover for tiny patterns."""
    best = len(edges)
    items = [("r", r) for r in row_ids] + [("c", c) for c in col_ids]
    for size in range(len(items) + 1):
        for combo in itertools.combinations(items, size):
            chosen_r = {v for t, v in combo if t == "r"}
            chosen_c = {v for t, v in combo if t == "c"}
            if all(r in chosen_r or c in chosen_c for r, c in edges):
                return size
    return best


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_dm_structural_invariants(data):
    nr = data.draw(st.integers(1, 8))
    nc = data.draw(st.integers(1, 8))
    nedges = data.draw(st.integers(1, 20))
    rows = np.array(
        data.draw(st.lists(st.integers(0, nr - 1), min_size=nedges, max_size=nedges))
    )
    cols = np.array(
        data.draw(st.lists(st.integers(0, nc - 1), min_size=nedges, max_size=nedges))
    )
    dm = coarse_dm(rows, cols)
    # Labels cover every nonempty row/col exactly once.
    assert dm.row_ids.size == np.unique(rows).size
    assert dm.col_ids.size == np.unique(cols).size
    # Nonzeros in H columns stay within H rows; V rows within V cols.
    h_cols = set(dm.h_cols.tolist())
    h_rows = set(dm.h_rows.tolist())
    v_rows = set(dm.v_rows.tolist())
    v_cols = set(dm.v_cols.tolist())
    for r, c in zip(rows.tolist(), cols.tolist()):
        if c in h_cols:
            assert r in h_rows
        if r in v_rows:
            assert c in v_cols
    # Horizontal has at least as many columns as rows; vertical dual.
    assert dm.nhat_h() >= dm.mhat_h()
    assert dm.v_rows.size >= dm.v_cols.size
    # Square block is square.
    assert dm.s_rows.size == dm.s_cols.size
    # König: matching = m̂(H) + m̂(S) + n̂(V).
    assert dm.matching_size == dm.mhat_h() + dm.s_rows.size + dm.v_cols.size


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_minimum_cover_equals_brute_force(data):
    nr = data.draw(st.integers(1, 5))
    nc = data.draw(st.integers(1, 5))
    nedges = data.draw(st.integers(1, 10))
    rows = data.draw(st.lists(st.integers(0, nr - 1), min_size=nedges, max_size=nedges))
    cols = data.draw(st.lists(st.integers(0, nc - 1), min_size=nedges, max_size=nedges))
    edges = list(set(zip(rows, cols)))
    got = minimum_cover_size(np.array([e[0] for e in edges]), np.array([e[1] for e in edges]))
    want = _brute_min_cover(edges, sorted({r for r, _ in edges}), sorted({c for _, c in edges}))
    assert got == want


def test_label_constants_exported():
    assert (HORIZONTAL, SQUARE, VERTICAL) == (0, 1, 2)
    assert isinstance(coarse_dm(np.array([0]), np.array([0])), CoarseDM)
