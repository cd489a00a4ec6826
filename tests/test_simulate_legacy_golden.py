"""Golden tests: vectorized executors vs the preserved seed executors.

The vectorized single-phase, two-phase and mesh-routed executors must
produce *bit-identical* ledgers (same phase order, same (src, dst)
pairs, same word counts), identical per-phase flops and the same ``y``
as the seed implementations frozen in :mod:`repro.simulate.legacy` —
on the generator suite and on random admissible partitions.
"""

import numpy as np
import pytest

from repro.core import make_s2d_bounded
from repro.generators.suite import table1_suite
from repro.hypergraph import PartitionConfig
from repro.partition import partition_1d_rowwise, partition_2d_finegrain
from repro.simulate import run_s2d_bounded, run_single_phase, run_two_phase
from repro.simulate.legacy import (
    legacy_run_s2d_bounded,
    legacy_run_single_phase,
    legacy_run_two_phase,
)
from tests.conftest import random_s2d_partition

CFG = PartitionConfig(seed=19, ninitial=2, fm_passes=2)
SUITE = table1_suite("tiny")[:5]


def assert_runs_identical(run_new, run_old):
    assert run_new.ledger.phase_names == run_old.ledger.phase_names
    assert run_new.ledger.as_dict() == run_old.ledger.as_dict()
    assert run_new.ledger.total_volume() == run_old.ledger.total_volume()
    assert run_new.ledger.total_msgs() == run_old.ledger.total_msgs()
    assert np.allclose(run_new.y, run_old.y, rtol=1e-12, atol=1e-14)
    assert [ph.name for ph in run_new.phases] == [ph.name for ph in run_old.phases]
    for ph_new, ph_old in zip(run_new.phases, run_old.phases):
        if ph_old.flops is not None:
            assert np.array_equal(ph_new.flops, ph_old.flops)


@pytest.mark.parametrize("sm", SUITE, ids=[s.name for s in SUITE])
def test_suite_golden_all_executors(sm):
    """Total volume / message counts pinned against the seed executors
    on the 5-matrix generator suite (random admissible s2D vectors)."""
    a = sm.matrix()
    rng = np.random.default_rng(hash(sm.name) % 2**32)
    p = random_s2d_partition(rng, a, 4)
    x = rng.random(p.matrix.shape[1])
    assert_runs_identical(run_single_phase(p, x), legacy_run_single_phase(p, x))
    assert_runs_identical(run_two_phase(p, x), legacy_run_two_phase(p, x))
    pb = make_s2d_bounded(p)
    assert_runs_identical(run_s2d_bounded(pb, x), legacy_run_s2d_bounded(pb, x))


@pytest.mark.parametrize("sm", SUITE[:2], ids=[s.name for s in SUITE[:2]])
def test_suite_golden_partitioned(sm):
    """Same pinning on real partitioner output (1D and fine-grain 2D)."""
    a = sm.matrix()
    p1 = partition_1d_rowwise(a, 4, CFG)
    assert_runs_identical(run_single_phase(p1), legacy_run_single_phase(p1))
    p2 = partition_2d_finegrain(a, 4, CFG)
    assert_runs_identical(run_two_phase(p2), legacy_run_two_phase(p2))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_partitions_golden(seed):
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    a = sp.random(40, 40, density=0.15, random_state=seed) + sp.eye(40)
    k = int(rng.integers(2, 7))
    p = random_s2d_partition(rng, a, k)
    x = rng.random(40)
    assert_runs_identical(run_single_phase(p, x), legacy_run_single_phase(p, x))
    assert_runs_identical(run_two_phase(p, x), legacy_run_two_phase(p, x))
    pb = make_s2d_bounded(p)
    assert_runs_identical(run_s2d_bounded(pb, x), legacy_run_s2d_bounded(pb, x))


def test_rectangular_golden(small_rect, rng):
    """Rectangular matrices exercise distinct row/col key spaces."""
    k = 3
    x_part = rng.integers(0, k, small_rect.shape[1])
    y_part = rng.integers(0, k, small_rect.shape[0])
    from repro.partition.types import SpMVPartition, VectorPartition

    side = rng.random(small_rect.nnz) < 0.5
    nnz_part = np.where(side, y_part[small_rect.row], x_part[small_rect.col])
    p = SpMVPartition(
        matrix=small_rect,
        nnz_part=nnz_part,
        vectors=VectorPartition(x_part=x_part, y_part=y_part, nparts=k),
        kind="s2D",
    )
    x = rng.random(small_rect.shape[1])
    assert_runs_identical(run_single_phase(p, x), legacy_run_single_phase(p, x))
    assert_runs_identical(run_two_phase(p, x), legacy_run_two_phase(p, x))
