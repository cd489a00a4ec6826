"""Eq. (3) bookkeeping: the single-phase ledger vs the analytic oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.partition.types import SpMVPartition, VectorPartition
from repro.simulate import run_single_phase
from tests.comm_oracle import per_processor, rowwise_volume, single_phase_words
from tests.conftest import random_s2d_partition

import scipy.sparse as sp

PHASE = "expand-and-fold"


def test_formula_matches_ledger(small_square, rng):
    p = random_s2d_partition(rng, small_square, 4)
    sent_v, recv_v, sent_m, recv_m = per_processor(4, single_phase_words(p))
    run = run_single_phase(p)
    assert sent_v.sum() == run.ledger.total_volume()
    assert np.array_equal(sent_v, run.ledger.sent_volume())
    assert np.array_equal(recv_v, run.ledger.recv_volume())
    assert np.array_equal(sent_m, run.ledger.sent_msgs())
    assert np.array_equal(recv_m, run.ledger.recv_msgs())
    # P_k messages P_ℓ iff block A_{ℓk} is nonempty: the message pattern
    # is a function of the vector partition alone.
    m = p.matrix
    rp, cp = p.vectors.y_part[m.row], p.vectors.x_part[m.col]
    off = rp != cp
    blocks = set(zip(cp[off].tolist(), rp[off].tolist()))
    src, dst, _ = run.ledger.phase_pairs(PHASE)
    assert set(zip(src.tolist(), dst.tolist())) == blocks


def test_pairwise_matches_ledger_pairs(small_square, rng):
    p = random_s2d_partition(rng, small_square, 3)
    run = run_single_phase(p)
    lam = single_phase_words(p)
    for (src, dst), words in lam.items():
        assert run.ledger.pair_volume(PHASE, src, dst) == words
    src, dst, words = run.ledger.phase_pairs(PHASE)
    assert dict(zip(zip(src.tolist(), dst.tolist()), words.tolist())) == lam


def test_eq3_manual_example():
    # 2 parts; rows {0}, {1}; cols {0}, {1}
    # nonzero (0,1) on row side -> x_1 travels 1->0
    # nonzero (1,0) on col side -> partial y_1 travels 0->1
    m = sp.coo_matrix((np.ones(4), ([0, 0, 1, 1], [0, 1, 0, 1])), shape=(2, 2))
    p = SpMVPartition(
        matrix=m,
        nnz_part=np.array([0, 0, 0, 1]),
        vectors=VectorPartition(
            x_part=np.array([0, 1]), y_part=np.array([0, 1]), nparts=2
        ),
    )
    assert single_phase_words(p) == {(1, 0): 1, (0, 1): 1}
    ledger = run_single_phase(p).ledger
    assert ledger.total_volume() == 2
    assert ledger.sent_msgs().tolist() == [1, 1]


def test_rowwise_volume_equals_block_nhat(small_square, rng):
    from repro.core import s2d_rowwise_baseline

    k = 4
    y = rng.integers(0, k, 30)
    x = rng.integers(0, k, 30)
    p = s2d_rowwise_baseline(small_square, x_part=x, y_part=y, nparts=k)
    bs = p.block_structure()
    assert run_single_phase(p).ledger.total_volume() == rowwise_volume(bs)


def test_formula_rejects_inadmissible(small_square):
    m = small_square
    k = 2
    p = SpMVPartition(
        matrix=m,
        nnz_part=np.ones(m.nnz, dtype=np.int64),
        vectors=VectorPartition(
            x_part=np.zeros(30, dtype=np.int64),
            y_part=np.zeros(30, dtype=np.int64),
            nparts=k,
        ),
    )
    with pytest.raises(PartitionError):
        run_single_phase(p)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.sampled_from([2, 3, 5]))
def test_formula_equals_ledger_property(seed, k):
    rng = np.random.default_rng(seed)
    a = sp.random(18, 22, density=0.2, random_state=seed)
    if a.nnz == 0:
        return
    p = random_s2d_partition(rng, a, k)
    sent_v, _, sent_m, _ = per_processor(k, single_phase_words(p))
    run = run_single_phase(p)
    assert sent_v.sum() == run.ledger.total_volume()
    assert np.array_equal(sent_m, run.ledger.sent_msgs())
