"""Direct K-way refinement and the Mondriaan ORB baseline.

The K-way polish runs at the end of ``partition_kway``; it draws no
random numbers, so ``kway_passes=0`` with the same seed gives the
partition it starts from."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentConfig
from repro.generators.suite import table1_suite
from repro.hypergraph import (
    Hypergraph,
    PartitionConfig,
    column_net_model,
    connectivity_minus_one,
    imbalance,
    partition_kway,
)
from repro.metrics import geomean
from repro.partition import partition_1d_rowwise, partition_mondriaan
from repro.rng import as_generator
from repro.simulate import MachineModel, evaluate

CFG = PartitionConfig(seed=17, ninitial=2, fm_passes=2)


# ----------------------------------------------------------- K-way


def _raw_and_polished(hg, k, seed, **cfg):
    raw = partition_kway(hg, k, PartitionConfig(seed=seed, kway_passes=0, **cfg))
    polished = partition_kway(hg, k, PartitionConfig(seed=seed, **cfg))
    return raw, polished


def test_kway_refine_never_increases_cut(medium_square):
    hg = column_net_model(medium_square)
    raw, refined = _raw_and_polished(hg, 4, 5, epsilon=0.5)
    assert connectivity_minus_one(hg, refined) <= connectivity_minus_one(hg, raw)


def test_kway_refine_respects_balance(medium_square):
    """A move lands only in a part that stays within the limit, so the
    polish never raises the imbalance above ``max(ε, before)``."""
    hg = column_net_model(medium_square)
    raw, refined = _raw_and_polished(hg, 4, 2)
    li_before = imbalance(hg, raw, 4)
    assert imbalance(hg, refined, 4) <= max(0.03, li_before) + 1e-9


def test_kway_refine_noop_cases():
    # no nets: nothing to gain, nothing moves
    hg = Hypergraph.from_net_lists([], nvertices=3)
    raw, polished = _raw_and_polished(hg, 3, 1)
    assert np.array_equal(polished, raw)
    assert sorted(raw.tolist()) == [0, 1, 2]
    # single part
    hg2 = Hypergraph.from_net_lists([[0, 1]], nvertices=2)
    assert np.array_equal(partition_kway(hg2, 1), np.zeros(2))


def test_kway_polish_in_partition_kway(medium_square):
    hg = column_net_model(medium_square)
    raw = partition_kway(hg, 8, PartitionConfig(seed=3, kway_passes=0))
    polished = partition_kway(hg, 8, PartitionConfig(seed=3, kway_passes=2))
    assert connectivity_minus_one(hg, polished) <= connectivity_minus_one(hg, raw)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_kway_refine_property(seed):
    rng = as_generator(seed)
    nets = [list(rng.choice(30, size=int(rng.integers(2, 6)), replace=False)) for _ in range(40)]
    hg = Hypergraph.from_net_lists(nets, nvertices=30)
    part, refined = _raw_and_polished(hg, 4, seed, epsilon=1.0)
    assert connectivity_minus_one(hg, refined) <= connectivity_minus_one(hg, part)
    assert refined.min() >= 0 and refined.max() < 4


# ----------------------------------------------------------- Mondriaan


def test_mondriaan_valid_partition(medium_square):
    p = partition_mondriaan(medium_square, 8, CFG)
    assert p.kind == "2D-orb"
    assert p.loads().sum() == medium_square.nnz
    assert set(np.unique(p.nnz_part)) <= set(range(8))


def test_mondriaan_balance(medium_square):
    p = partition_mondriaan(medium_square, 4, CFG)
    assert p.load_imbalance() < 0.30


def test_mondriaan_simulates(medium_square, rng):
    p = partition_mondriaan(medium_square, 8, CFG)
    q = evaluate(p, machine=MachineModel(alpha=10, beta=2, gamma=1))
    assert q.total_volume > 0
    assert q.speedup > 0


def test_mondriaan_beats_random_volume(medium_square, rng):
    from repro.partition.types import SpMVPartition, VectorPartition
    from repro.simulate import run_two_phase

    k = 8
    p = partition_mondriaan(medium_square, k, CFG)
    vol = evaluate(p).total_volume
    rnd = SpMVPartition(
        matrix=medium_square,
        nnz_part=rng.integers(0, k, medium_square.nnz),
        vectors=p.vectors,
        kind="2D",
    )
    rnd_vol = run_two_phase(rnd).ledger.total_volume()
    assert vol < rnd_vol


def test_mondriaan_k1(small_square):
    p = partition_mondriaan(small_square, 1, CFG)
    assert np.all(p.nnz_part == 0)


def test_mondriaan_handles_dense_row():
    from repro.generators import arrow_matrix

    a = arrow_matrix(100, nfull=1, seed=4)
    p = partition_mondriaan(a, 8, CFG)
    # ORB can split the full row across parts, unlike 1D
    assert p.load_imbalance() < 1.0


def test_mondriaan_beats_1d_on_the_general_suite():
    """ORB is a genuine 2D method: on the tiny general suite at its
    largest K it balances every matrix to LI < 1 and sends fewer words
    than 1D on geomean."""
    cfg = ExperimentConfig(scale="tiny")
    k = cfg.general_ks[-1]
    vol_1d, vol_orb = [], []
    for idx, sm in enumerate(table1_suite(cfg.scale)):
        a = sm.matrix()
        q1 = evaluate(partition_1d_rowwise(a, k, cfg.partitioner(idx * 10)), machine=cfg.machine)
        qo = evaluate(partition_mondriaan(a, k, cfg.partitioner(idx * 10 + 4)), machine=cfg.machine)
        assert qo.load_imbalance < 1.0, sm.name
        vol_1d.append(q1.total_volume)
        vol_orb.append(qo.total_volume)
    assert geomean(vol_orb) < geomean(vol_1d)
