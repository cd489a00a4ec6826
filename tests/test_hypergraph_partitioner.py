"""Multilevel partitioner: coarsening, refinement, K-way quality.

Coarsening, the initial bisections and FM run inside the C V-cycle
(``multilevel_bisect``); the knobs that isolate a stage (``fm_passes=0``
for no refinement, ``coarsen_to=n`` for no coarsening, ``ninitial=1``
for one greedy-growing trial) make each observable through a whole
call."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
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
from repro.hypergraph.bisect import multilevel_bisect
from repro.hypergraph.partitioner import net_connectivities
from repro.rng import as_generator


def _chain_hg(n=40):
    """A chain: net i = {i, i+1}; the optimal bisection cuts one net."""
    return Hypergraph.from_net_lists([[i, i + 1] for i in range(n - 1)], nvertices=n)


def _bisect(hg, seed, epsilon=0.05, **cfg):
    """One traced V-cycle toward equal halves: ``(side, cut,
    partition.levels)``."""
    t = hg.total_weight().astype(float)
    with obs.tracing() as tr:
        side, cut = multilevel_bisect(
            hg, (t * 0.5, t * 0.5), epsilon, as_generator(seed), PartitionConfig(**cfg)
        )
    return side, cut, tr.total_counters()["partition.levels"]


def test_coarsen_reduces_and_preserves_weight():
    """A chain coarsens level by level; the projected bisection keeps
    both halves within the tolerance of the total weight."""
    hg = _chain_hg(64)
    side, _, levels = _bisect(hg, 1, coarsen_to=2)
    assert levels >= 3
    assert np.bincount(side, minlength=2).max() <= 32 * 1.05


def test_coarsen_merges_identical_nets():
    # two pairs of identical nets: each pair of vertices merges, its
    # nets vanish, and the bisection of the two coarse vertices cuts
    # nothing
    hg = Hypergraph.from_net_lists([[0, 1], [0, 1], [2, 3], [2, 3]], nvertices=4)
    side, cut, levels = _bisect(hg, 0, coarsen_to=2)
    assert levels == 1 and cut == 0
    assert side[0] == side[1] != side[2] == side[3]


def test_initial_bisections_respect_targets():
    """Greedy growing alone (one trial) and the best of greedy growing
    and a random fill (two trials), without coarsening or FM passes:
    part 0 never exceeds its target."""
    hg = _chain_hg(40)
    target = hg.total_weight()[0] * 0.5
    for ninitial in (1, 2):
        side, _, _ = _bisect(hg, 3, coarsen_to=40, ninitial=ninitial, fm_passes=0)
        assert np.count_nonzero(side == 0) <= target + 1e-9
        assert set(np.unique(side)) <= {0, 1}


def test_fm_improves_chain_cut():
    """The same greedy start without and with FM passes."""
    hg = _chain_hg(40)
    start = dict(coarsen_to=40, ninitial=1)
    part, before, _ = _bisect(hg, 5, fm_passes=0, **start)
    refined, after, _ = _bisect(hg, 5, fm_passes=4, **start)
    assert before == cutnet_cost(hg, part)
    assert after <= before
    assert after == cutnet_cost(hg, refined)


def test_fm_reports_consistent_cut(small_square):
    hg = column_net_model(small_square)
    refined, cut, _ = _bisect(hg, 6, epsilon=0.1)
    assert cut == cutnet_cost(hg, refined)


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("coarsen_to", 2.5),
        ("fm_passes", 1.5),
        ("kway_passes", "2"),
        ("ninitial", True),
        ("ninitial", 2**70),
        ("max_net_size", None),
        ("max_net_size", np.float64(8)),
    ],
)
def test_partition_config_rejects_non_integer_counts(field, value):
    """The counts the C drivers take as int64 are integers that fit in
    one, bools excluded, refused at construction rather than deep in
    the call (a ctypes error) or silently (``True``)."""
    with pytest.raises(ConfigError, match=f"{field} must be an integer that fits in int64"):
        PartitionConfig(**{field: value})


def test_partition_config_keeps_integer_counts_as_given():
    """No coercion: a NumPy integer stays what it was, so a config's
    fields and every key built from them are unchanged."""
    cfg = PartitionConfig(ninitial=np.int64(3), coarsen_to=2**63 - 1)
    assert type(cfg.ninitial) is np.int64 and cfg.coarsen_to == 2**63 - 1


def test_multilevel_bisect_takes_its_knobs_from_the_config():
    """The V-cycle reads ``coarsen_to``, ``ninitial``, ``fm_passes`` and
    ``max_net_size`` from a PartitionConfig, whose checks guard it; the
    config's ``epsilon`` and ``seed`` are not read."""
    hg = _chain_hg(48)
    t = hg.total_weight().astype(float)
    runs = [
        multilevel_bisect(hg, (t / 2, t / 2), 0.05, as_generator(3), cfg)
        for cfg in (
            PartitionConfig(coarsen_to=48, ninitial=1, fm_passes=0),
            PartitionConfig(coarsen_to=48, ninitial=1, fm_passes=0, epsilon=0.5, seed=9),
            PartitionConfig(coarsen_to=4, ninitial=1, fm_passes=0),
        )
    ]
    assert np.array_equal(runs[0][0], runs[1][0]) and runs[0][1] == runs[1][1]
    assert not np.array_equal(runs[0][0], runs[2][0])
    with pytest.raises(ConfigError, match="ninitial must be at least 1"):
        PartitionConfig(ninitial=0)


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
