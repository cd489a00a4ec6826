"""Deeper FM / coarsening / initial-partition behaviour, incl.
properties, each observed through whole V-cycles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.hypergraph import Hypergraph, PartitionConfig, cutnet_cost
from repro.hypergraph.bisect import multilevel_bisect
from repro.rng import as_generator


def _random_hg(rng, n, nnets, max_pins=5, ncon=1):
    nets = []
    for _ in range(nnets):
        size = int(rng.integers(1, max_pins + 1))
        nets.append(list(rng.choice(n, size=min(size, n), replace=False)))
    w = rng.integers(1, 4, size=(n, ncon))
    costs = rng.integers(1, 5, size=nnets)
    return Hypergraph.from_net_lists(nets, nvertices=n, vweights=w, ncosts=costs)


def _halves(hg):
    t = hg.total_weight().astype(float)
    return t / 2, t / 2


def _bisect(hg, seed, targets=None, epsilon=0.1, **cfg):
    """One traced V-cycle: ``(side, cut, partition.levels)``."""
    with obs.tracing() as tr:
        side, cut = multilevel_bisect(
            hg, targets or _halves(hg), epsilon, as_generator(seed), PartitionConfig(**cfg)
        )
    return side, cut, tr.total_counters()["partition.levels"]


def _violation(hg, side, targets, epsilon) -> float:
    """The worst side weight over its limit ``target · (1 + ε)``."""
    pw = np.zeros((2, hg.nconstraints))
    np.add.at(pw, side, hg.vweights)
    return float((pw / (np.array(targets) * (1 + epsilon))).max())


def test_fm_zero_net_hypergraph():
    hg = Hypergraph.from_net_lists([], nvertices=5)
    _, cut, _ = _bisect(hg, 0)
    assert cut == 0


def test_fm_empty_hypergraph():
    hg = Hypergraph.from_net_lists([], nvertices=0)
    out, cut, _ = _bisect(hg, 0, (np.array([0.0]), np.array([0.0])))
    assert out.size == 0 and cut == 0


def test_fm_does_not_mutate_input():
    hg = Hypergraph.from_net_lists([[0, 1], [1, 2]], nvertices=3)
    targets = _halves(hg)
    before = [a.copy() for a in (hg.xpins, hg.pins, hg.xnets, hg.nets, hg.vweights,
                                 hg.ncosts, *targets)]
    _bisect(hg, 0, targets, 0.5)
    after = (hg.xpins, hg.pins, hg.xnets, hg.nets, hg.vweights, hg.ncosts, *targets)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_fm_repairs_infeasible_start():
    """A ring coarsened to three vertices has no bisection of its
    coarsest level within 10%: projected without FM passes it stays
    infeasible, and FM must be allowed to reduce the violation."""
    n = 20
    hg = Hypergraph.from_net_lists([[i, (i + 1) % n] for i in range(n)], nvertices=n)
    targets = _halves(hg)
    start, *_ = _bisect(hg, 0, coarsen_to=3, ninitial=1, fm_passes=0)
    out, *_ = _bisect(hg, 0, coarsen_to=3, ninitial=1, fm_passes=6)
    assert _violation(hg, start, targets, 0.1) > 1.0
    assert _violation(hg, out, targets, 0.1) <= 1.0 + 1e-9


def test_part_weights_shape():
    """A two-constraint bisection whose limits fit one vertex a side:
    the per-side, per-constraint weights are the vertices' rows."""
    hg = Hypergraph.from_net_lists([[0, 1]], nvertices=2, vweights=np.array([[1, 2], [3, 4]]))
    side, _, _ = _bisect(hg, 0, epsilon=0.5)
    pw = np.zeros((2, 2), dtype=np.int64)
    np.add.at(pw, side, hg.vweights)
    assert pw.sum(axis=0).tolist() == [4, 6]
    assert sorted(pw.tolist()) == [[1, 2], [3, 4]]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fm_cut_consistency_property(seed):
    """The reported cut always equals a from-scratch recount, and FM
    from one greedy start never worsens it."""
    rng = as_generator(seed)
    hg = _random_hg(rng, n=20, nnets=25)
    targets = _halves(hg)
    one = dict(coarsen_to=20, ninitial=1)
    part, start_cut, _ = _bisect(hg, seed, targets, 0.2, fm_passes=0, **one)
    refined, cut, _ = _bisect(hg, seed, targets, 0.2, fm_passes=3, **one)
    assert start_cut == cutnet_cost(hg, part)
    assert cut == cutnet_cost(hg, refined)
    v0 = _violation(hg, part, targets, 0.2)
    v1 = _violation(hg, refined, targets, 0.2)
    if v0 <= 1.0:
        # feasible start: refinement never increases the cut
        assert cut <= start_cut
        assert v1 <= 1.0  # and stays feasible
    else:
        # infeasible start: FM may trade cut for balance, never worsen it
        assert v1 <= v0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_coarsen_preserves_weight_and_costs(seed):
    """Through every coarse level and back, the bisection covers each
    vertex once and its cut is the fine hypergraph's."""
    rng = as_generator(seed)
    hg = _random_hg(rng, n=30, nnets=40, ncon=2)
    side, cut, levels = _bisect(hg, seed, coarsen_to=2)
    assert side.shape == (30,) and set(np.unique(side)) <= {0, 1}
    assert cut == cutnet_cost(hg, side)
    assert 0 <= levels


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_initial_partitions_binary(seed):
    rng = as_generator(seed)
    hg = _random_hg(rng, n=25, nnets=30)
    for ninitial in (1, 2):  # greedy growing, then also a random fill
        part, _, _ = _bisect(hg, seed, coarsen_to=25, ninitial=ninitial, fm_passes=0)
        assert part.shape == (25,)
        assert set(np.unique(part)) <= {0, 1}


def test_greedy_growing_reaches_target_weight():
    hg = Hypergraph.from_net_lists(
        [[i, i + 1] for i in range(39)], nvertices=40
    )
    t = hg.total_weight().astype(float)
    part, _, _ = _bisect(hg, 3, coarsen_to=40, ninitial=1, fm_passes=0)
    assert np.count_nonzero(part == 0) >= 0.4 * t[0]


def test_coarsen_skips_huge_nets():
    # one giant net + pair nets; the giant net must not dominate matching
    nets = [list(range(50))] + [[i, i + 1] for i in range(0, 48, 2)]
    hg = Hypergraph.from_net_lists(nets, nvertices=50)
    side, cut, levels = _bisect(hg, 1, coarsen_to=2, max_net_size=10)
    # pairs still match via the small nets, and no pair is cut
    assert levels >= 1
    assert all(side[i] == side[i + 1] for i in range(0, 48, 2))
    assert cut == 1  # only the giant net
