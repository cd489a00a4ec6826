"""Multilevel partitioner: coarsening, refinement, K-way quality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hypergraph import (
    Hypergraph,
    PartitionConfig,
    column_net_model,
    connectivity_minus_one,
    cutnet_cost,
    imbalance,
    partition_kway,
)
from repro.hypergraph.coarsen import coarsen_once
from repro.hypergraph.initial import greedy_growing, random_bisection
from repro.hypergraph.partitioner import net_connectivities
from repro.hypergraph.refine import bisection_cut, fm_refine, part_weights
from repro.rng import as_generator


def _chain_hg(n=40):
    """A chain: net i = {i, i+1}; the optimal bisection cuts one net."""
    return Hypergraph.from_net_lists([[i, i + 1] for i in range(n - 1)], nvertices=n)


def test_coarsen_reduces_and_preserves_weight():
    hg = _chain_hg(64)
    cmap, coarse = coarsen_once(hg, as_generator(1))
    assert coarse.nvertices < hg.nvertices
    assert coarse.total_weight()[0] == hg.total_weight()[0]
    assert cmap.max() == coarse.nvertices - 1


def test_coarsen_merges_identical_nets():
    # two identical nets -> one coarse net with summed cost
    hg = Hypergraph.from_net_lists([[0, 1], [0, 1]], nvertices=2)
    cmap, coarse = coarsen_once(hg, as_generator(0))
    # the pair merges into one vertex, so nets vanish entirely
    assert coarse.nvertices == 1
    assert coarse.nnets == 0


def test_initial_bisections_respect_targets():
    hg = _chain_hg(40)
    total = hg.total_weight().astype(float)
    targets = (total * 0.5, total * 0.5)
    for ctor in (random_bisection, greedy_growing):
        part = ctor(hg, targets, as_generator(3))
        pw = part_weights(hg, part)
        assert pw[0, 0] <= targets[0][0] + 1e-9
        assert set(np.unique(part)) <= {0, 1}


def test_fm_improves_chain_cut():
    hg = _chain_hg(40)
    rng = as_generator(5)
    part = rng.integers(0, 2, 40).astype(np.int8)  # random: many cut nets
    total = hg.total_weight().astype(float)
    before = bisection_cut(hg, part)
    refined, after = fm_refine(hg, part, (total * 0.5, total * 0.5), 0.05)
    assert after <= before
    assert after == bisection_cut(hg, refined)


def test_fm_reports_consistent_cut(small_square, rng):
    hg = column_net_model(small_square)
    part = rng.integers(0, 2, hg.nvertices).astype(np.int8)
    total = hg.total_weight().astype(float)
    refined, cut = fm_refine(hg, part, (total * 0.5, total * 0.5), 0.1)
    assert cut == bisection_cut(hg, refined)


def test_partition_kway_basic(small_square):
    hg = column_net_model(small_square)
    part = partition_kway(hg, 4, PartitionConfig(seed=2))
    assert part.size == hg.nvertices
    assert set(np.unique(part)) <= set(range(4))
    assert imbalance(hg, part, 4) < 0.5  # sane balance on a tiny instance


def test_partition_kway_k1_trivial(small_square):
    hg = column_net_model(small_square)
    part = partition_kway(hg, 1)
    assert np.all(part == 0)
    assert connectivity_minus_one(hg, part) == 0


def test_partition_kway_rejects_bad_k(small_square):
    with pytest.raises(ConfigError):
        partition_kway(column_net_model(small_square), 0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("ninitial", 0, "ninitial must be at least 1"),
        ("fm_passes", -1, "fm_passes must be nonnegative"),
        ("kway_passes", -1, "kway_passes must be nonnegative"),
        ("max_net_size", 1, "max_net_size must be at least 2"),
    ],
)
def test_partition_config_rejects_misuse(field, value, message):
    with pytest.raises(ConfigError, match=message):
        PartitionConfig(**{field: value})


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -0.01])
def test_partition_config_rejects_bad_epsilon(epsilon):
    """A NaN tolerance admits no move and an infinite one admits every
    move (all vertices in one part); both fail up front, like a
    negative one."""
    with pytest.raises(ConfigError, match="epsilon must be finite and nonnegative"):
        PartitionConfig(epsilon=epsilon)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
def test_partition_config_rejects_bad_seed(seed):
    with pytest.raises(ConfigError, match="seed must be None, an integer >= 0"):
        PartitionConfig(seed=seed)


def test_partition_config_accepts_every_seed_form():
    for seed in (None, 0, np.int64(3), 2**70, np.random.default_rng(1)):
        assert PartitionConfig(seed=seed).seed is seed


@pytest.mark.parametrize("nparts", [2.5, 2.0, True, np.float64(4)])
def test_partition_kway_rejects_non_integral_nparts(small_square, nparts):
    """2.5 used to recurse without end and True to return one part."""
    with pytest.raises(ConfigError, match="nparts must be an integer"):
        partition_kway(column_net_model(small_square), nparts)


def test_partition_kway_accepts_numpy_integer_nparts(small_square):
    hg = column_net_model(small_square)
    assert np.array_equal(partition_kway(hg, np.int64(4)), partition_kway(hg, 4))


def test_partition_config_zero_passes_stay_valid():
    cfg = PartitionConfig(fm_passes=0, kway_passes=0, ninitial=1, max_net_size=2)
    hg = _chain_hg(32)
    part = partition_kway(hg, 2, cfg)
    assert set(np.unique(part).tolist()) <= {0, 1}


def test_partition_chain_optimal_cut():
    hg = _chain_hg(64)
    part = partition_kway(hg, 2, PartitionConfig(seed=7))
    # the optimal bisection cuts exactly 1 net; allow tiny slack
    assert cutnet_cost(hg, part) <= 2
    assert imbalance(hg, part, 2) <= 0.1


def test_connectivity_metrics_manual():
    hg = Hypergraph.from_net_lists([[0, 1, 2], [2, 3]], nvertices=4)
    part = np.array([0, 0, 1, 1])
    lam = net_connectivities(hg, part)
    assert lam.tolist() == [2, 1]
    assert connectivity_minus_one(hg, part) == 1
    assert cutnet_cost(hg, part) == 1


def test_connectivity_weighted_nets():
    hg = Hypergraph.from_net_lists(
        [[0, 1], [1, 2]], nvertices=3, ncosts=np.array([5, 7])
    )
    part = np.array([0, 1, 2])
    assert connectivity_minus_one(hg, part) == 5 + 7
    assert cutnet_cost(hg, part) == 12


def test_imbalance_metric():
    hg = Hypergraph.from_net_lists([[0, 1]], nvertices=2, vweights=np.array([3, 1]))
    part = np.array([0, 1])
    assert imbalance(hg, part, 2) == pytest.approx(3 / 2 - 1)


def test_partition_larger_k_than_useful(medium_square):
    hg = column_net_model(medium_square)
    part = partition_kway(hg, 16, PartitionConfig(seed=1))
    counts = np.bincount(part, minlength=16)
    assert counts.sum() == hg.nvertices
    # Every part nonempty at this size.
    assert np.all(counts > 0)


def test_partition_beats_random(medium_square):
    hg = column_net_model(medium_square)
    cfg = PartitionConfig(seed=4)
    part = partition_kway(hg, 8, cfg)
    rnd = as_generator(11).integers(0, 8, hg.nvertices)
    assert connectivity_minus_one(hg, part) < connectivity_minus_one(hg, rnd)


def test_multiconstraint_partition_balances_both():
    # two constraints: weight A on even vertices, weight B on odd
    n = 64
    w = np.zeros((n, 2), dtype=np.int64)
    w[::2, 0] = 1
    w[1::2, 1] = 1
    hg = Hypergraph.from_net_lists(
        [[i, (i + 1) % n] for i in range(n)], nvertices=n, vweights=w
    )
    part = partition_kway(hg, 2, PartitionConfig(seed=9, epsilon=0.10))
    assert imbalance(hg, part, 2) < 0.35


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.sampled_from([2, 3, 4, 8]))
def test_partition_kway_always_valid(seed, k):
    hg = _chain_hg(48)
    part = partition_kway(hg, k, PartitionConfig(seed=seed, ninitial=2, fm_passes=2))
    assert part.size == 48
    assert part.min() >= 0 and part.max() < k
    # connectivity-1 of a chain partitioned into k contiguous-ish parts
    # can never exceed the number of nets
    assert connectivity_minus_one(hg, part) <= hg.nnets
