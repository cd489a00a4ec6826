"""The s2D construction methods: optimality, Algorithm 1 invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import s2d_heuristic, s2d_optimal, s2d_rowwise_baseline, single_phase_comm_stats
from repro.hypergraph import PartitionConfig
from repro.partition import partition_1d_rowwise
from repro.partition.types import SpMVPartition, VectorPartition
from repro.sparse.coo import canonical_coo
import scipy.sparse as sp


def _rand_instance(seed, n=24, k=3, density=0.15):
    rng = np.random.default_rng(seed)
    a = canonical_coo(sp.random(n, n, density=density, random_state=seed) + sp.eye(n))
    y = rng.integers(0, k, n)
    x = rng.integers(0, k, n)
    return a, x, y, k


def _brute_force_min_volume(a, x, y, k):
    """Enumerate all row/col-side splits per off-diagonal block."""
    m = canonical_coo(a)
    rp = y[m.row]
    cp = x[m.col]
    total = 0
    for ell in range(k):
        for kk in range(k):
            if ell == kk:
                continue
            idx = np.flatnonzero((rp == ell) & (cp == kk))
            if idx.size == 0:
                continue
            rows = m.row[idx]
            cols = m.col[idx]
            best = None
            for bits in itertools.product([0, 1], repeat=idx.size):
                sel = np.array(bits, dtype=bool)  # True -> column side
                vol = np.unique(cols[~sel]).size + np.unique(rows[sel]).size
                best = vol if best is None else min(best, vol)
            total += best
    return total


def test_rowwise_baseline_is_1d(small_square, rng):
    k = 3
    y = rng.integers(0, k, small_square.shape[0])
    x = rng.integers(0, k, small_square.shape[1])
    p = s2d_rowwise_baseline(small_square, x_part=x, y_part=y, nparts=k)
    assert p.is_1d_rowwise()
    assert p.is_s2d_admissible()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_optimal_matches_brute_force(seed):
    a, x, y, k = _rand_instance(seed, n=14, k=3, density=0.12)
    p = s2d_optimal(a, x_part=x, y_part=y, nparts=k)
    got = single_phase_comm_stats(p).total_volume
    want = _brute_force_min_volume(a, x, y, k)
    assert got == want


def test_optimal_never_worse_than_rowwise(small_square, rng):
    k = 4
    y = rng.integers(0, k, 30)
    x = rng.integers(0, k, 30)
    base = s2d_rowwise_baseline(small_square, x_part=x, y_part=y, nparts=k)
    opt = s2d_optimal(small_square, x_part=x, y_part=y, nparts=k)
    v_base = single_phase_comm_stats(base).total_volume
    v_opt = single_phase_comm_stats(opt).total_volume
    assert v_opt <= v_base


def test_heuristic_admissible_and_bounded(medium_square):
    k = 8
    p1 = partition_1d_rowwise(medium_square, k, PartitionConfig(seed=5))
    s = s2d_heuristic(medium_square, x_part=p1.vectors, nparts=k)
    s.validate_s2d()
    v1 = single_phase_comm_stats(p1).total_volume
    vs = single_phase_comm_stats(s).total_volume
    vo = single_phase_comm_stats(
        s2d_optimal(medium_square, x_part=p1.vectors, nparts=k)
    ).total_volume
    assert vo <= vs <= v1


def test_heuristic_respects_wlim_when_start_feasible(medium_square):
    k = 4
    p1 = partition_1d_rowwise(medium_square, k, PartitionConfig(seed=5))
    w_lim = float(p1.loads().max())  # start is feasible under this cap
    s = s2d_heuristic(medium_square, x_part=p1.vectors, nparts=k, w_lim=w_lim)
    assert s.loads().max() <= w_lim


def test_heuristic_never_degrades_max_load_beyond_start(medium_square):
    # With w_lim below the starting max, flips may only go under max(W~).
    k = 8
    p1 = partition_1d_rowwise(medium_square, k, PartitionConfig(seed=2))
    start_max = p1.loads().max()
    s = s2d_heuristic(medium_square, x_part=p1.vectors, nparts=k, w_lim=1.0)
    assert s.loads().max() <= start_max


def test_heuristic_same_comm_pattern_as_1d(medium_square):
    """Paper, Section III: s2D and 1D share the message pattern."""
    from repro.simulate import run_single_phase

    k = 6
    p1 = partition_1d_rowwise(medium_square, k, PartitionConfig(seed=8))
    s = s2d_heuristic(medium_square, x_part=p1.vectors, nparts=k)
    r1 = run_single_phase(p1)
    rs = run_single_phase(s)
    assert np.array_equal(
        r1.ledger.sent_msgs("expand-and-fold"), rs.ledger.sent_msgs("expand-and-fold")
    )
    assert np.array_equal(
        r1.ledger.recv_msgs("expand-and-fold"), rs.ledger.recv_msgs("expand-and-fold")
    )


def test_heuristic_meta_records_choices(small_square, rng):
    k = 3
    y = rng.integers(0, k, 30)
    s = s2d_heuristic(small_square, y_part=y, nparts=k)
    assert s.meta["method"] == "heuristic"
    assert "w_lim" in s.meta
    table = s.meta["choices"]
    assert len(table) > 0 and np.all(table.lambda_minus >= 0)
    assert s.meta["chosen"].dtype == bool and s.meta["chosen"].size == len(table)
    # Every block that took A2 moved exactly its H nonzeros to its column part.
    for i in np.flatnonzero(s.meta["chosen"]):
        assert np.all(s.nnz_part[table[i].h_nnz] == table.col_part[i])


def test_vector_partition_defaults_symmetric_for_square(small_square, rng):
    y = rng.integers(0, 3, 30)
    s = s2d_heuristic(small_square, y_part=y, nparts=3)
    assert np.array_equal(s.vectors.x_part, s.vectors.y_part)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_heuristic_volume_never_exceeds_rowwise(seed):
    a, x, y, k = _rand_instance(seed, n=30, k=4, density=0.1)
    base = s2d_rowwise_baseline(a, x_part=x, y_part=y, nparts=k)
    s = s2d_heuristic(a, x_part=x, y_part=y, nparts=k)
    assert (
        single_phase_comm_stats(s).total_volume
        <= single_phase_comm_stats(base).total_volume
    )
    s.validate_s2d()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_optimal_admissible_random_vectors(seed):
    a, x, y, k = _rand_instance(seed, n=26, k=3)
    p = s2d_optimal(a, x_part=x, y_part=y, nparts=k)
    p.validate_s2d()
    # diagonal-block nonzeros always stay with their (unique) owner
    m = p.matrix
    diag = y[m.row] == x[m.col]
    assert np.all(p.nnz_part[diag] == y[m.row][diag])
