"""The vectorized partitioner core: determinism, quality vs the seed
implementation's frozen cuts, kernel correctness, edge cases, and the
stage spans the ``--profile`` table is folded from."""

import numpy as np
import pytest

from repro import obs
from repro.generators.suite import table1_suite
from repro.hypergraph import (
    Hypergraph,
    PartitionConfig,
    column_net_model,
    connectivity_minus_one,
    partition_kway,
)
from repro.hypergraph.coarsen import coarsen_once
from repro.hypergraph.kway import kway_greedy_refine
from repro.hypergraph.refine import _violation, bisection_cut, fm_refine, part_weights
from repro.kernels import (
    GroupPlan,
    concat_ranges,
    in_sorted,
    pair_counts,
    unique_ints,
)
from repro.rng import as_generator


def _random_hg(rng, n, nnets, max_pins=5, ncon=1):
    nets = []
    for _ in range(nnets):
        size = int(rng.integers(1, max_pins + 1))
        nets.append(list(rng.choice(n, size=min(size, n), replace=False)))
    w = rng.integers(1, 4, size=(n, ncon))
    costs = rng.integers(1, 5, size=nnets)
    return Hypergraph.from_net_lists(nets, nvertices=n, vweights=w, ncosts=costs)


# ----------------------------------------------------------------------
# Shared kernels
# ----------------------------------------------------------------------


def test_concat_ranges_basic():
    out = concat_ranges(np.array([0, 5, 9]), np.array([3, 5, 12]))
    assert out.tolist() == [0, 1, 2, 9, 10, 11]


def test_concat_ranges_empty():
    assert concat_ranges(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0
    assert concat_ranges(np.array([4]), np.array([4])).size == 0


def test_concat_ranges_rejects_negative_spans():
    with pytest.raises(ValueError):
        concat_ranges(np.array([5]), np.array([3]))


def test_in_sorted_membership(rng):
    haystack = np.unique(rng.integers(0, 1000, size=200))
    queries = rng.integers(-50, 1100, size=500)
    expected = np.isin(queries, haystack)
    assert np.array_equal(in_sorted(haystack, queries), expected)


def test_in_sorted_empty_haystack():
    assert not in_sorted(np.array([], dtype=np.int64), np.array([1, 2])).any()
    assert in_sorted(np.array([3]), np.array([], dtype=np.int64)).size == 0


@pytest.mark.parametrize("n", [4, 5000])  # histogram fastpath vs sort fallback
def test_pair_counts_matches_reference(rng, n):
    src = rng.integers(0, n, size=300)
    dst = rng.integers(0, n, size=300)
    s, d, c = pair_counts(src, dst, n)
    ref: dict = {}
    for a, b in zip(src, dst):
        ref[(int(a), int(b))] = ref.get((int(a), int(b)), 0) + 1
    assert {(int(a), int(b)): int(w) for a, b, w in zip(s, d, c)} == ref
    assert int(c.sum()) == 300
    keys = s * n + d
    assert np.all(np.diff(keys) > 0)  # sorted, distinct


def test_pair_counts_empty():
    s, d, c = pair_counts(np.array([]), np.array([]), 7)
    assert s.size == d.size == c.size == 0


@pytest.mark.parametrize("scale", [1, 10**15])  # dense fastpath vs fallback
def test_unique_ints_matches_numpy(rng, scale):
    keys = rng.integers(0, 400, size=1000) * scale
    assert np.array_equal(unique_ints(keys), np.unique(keys))


def test_unique_ints_empty():
    assert unique_ints(np.array([], dtype=np.int64)).size == 0


@pytest.mark.parametrize("span", ["dense", "sparse"])
def test_group_plan_matches_reference(rng, span):
    nkeys = 500
    keys = rng.integers(0, 40, size=nkeys)
    if span == "sparse":
        keys = keys * 10**15  # force the unique-based fallback
    values = rng.standard_normal(nkeys)
    plan, uniq = GroupPlan.build(keys)
    sums = plan.apply(values)
    ref_uniq, inv = np.unique(keys, return_inverse=True)
    ref = np.zeros(ref_uniq.size)
    np.add.at(ref, inv, values)
    assert np.array_equal(uniq, ref_uniq)
    assert np.allclose(sums, ref)


def test_group_plan_empty():
    plan, uniq = GroupPlan.build(np.array([], dtype=np.int64))
    sums = plan.apply(np.array([]))
    assert uniq.size == 0 and sums.size == 0


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


def test_partition_kway_seeded_determinism(small_square):
    hg1 = column_net_model(small_square)
    hg2 = column_net_model(small_square)  # fresh instance, fresh caches
    cfg = PartitionConfig(seed=11)
    p1 = partition_kway(hg1, 8, cfg)
    p2 = partition_kway(hg1, 8, cfg)
    p3 = partition_kway(hg2, 8, cfg)
    assert np.array_equal(p1, p2)
    assert np.array_equal(p1, p3)


def test_partition_kway_seed_changes_result(medium_square):
    hg = column_net_model(medium_square)
    p1 = partition_kway(hg, 8, PartitionConfig(seed=1))
    p2 = partition_kway(hg, 8, PartitionConfig(seed=2))
    assert not np.array_equal(p1, p2)  # astronomically unlikely otherwise


def test_coarsen_deterministic(medium_square):
    hg = column_net_model(medium_square)
    c1, h1 = coarsen_once(hg, as_generator(4))
    c2, h2 = coarsen_once(hg, as_generator(4))
    assert np.array_equal(c1, c2)
    assert np.array_equal(h1.xpins, h2.xpins)
    assert np.array_equal(h1.pins, h2.pins)
    assert np.array_equal(h1.ncosts, h2.ncosts)


# ----------------------------------------------------------------------
# Quality golden: vectorized within 5% of the seed implementation
# ----------------------------------------------------------------------

#: Connectivity-1 cuts of the seed (pre-vectorization) partitioner on
#: the tiny suite's column-net models, K = 8, ``PartitionConfig(seed=3)``.
#: Frozen: the seed partitioner is deleted.
SEED_CUTS_K8 = {
    "crystk02": 269,
    "turon_m": 334,
    "trdheim": 273,
    "c-big": 627,
    "ASIC_680k": 565,
}


@pytest.mark.parametrize(
    "matrix_idx", range(5), ids=[sm.name for sm in table1_suite("tiny")[:5]]
)
def test_quality_within_5pct_of_legacy(matrix_idx):
    sm = table1_suite("tiny")[matrix_idx]
    hg = column_net_model(sm.matrix())
    cfg = PartitionConfig(seed=3)
    cut_new = connectivity_minus_one(hg, partition_kway(hg, 8, cfg))
    assert cut_new <= 1.05 * SEED_CUTS_K8[sm.name]


# ----------------------------------------------------------------------
# Coarsening edge cases
# ----------------------------------------------------------------------


def test_coarsen_all_nets_above_max_size():
    # every net too large to score: no pair matches, contraction is
    # the identity on vertices and the V-cycle stall check fires
    nets = [list(range(12)), list(range(2, 14))]
    hg = Hypergraph.from_net_lists(nets, nvertices=14)
    cmap, coarse = coarsen_once(hg, as_generator(0), max_net_size=5)
    assert np.array_equal(cmap, np.arange(14))
    assert coarse.nvertices == 14
    assert coarse.nnets == 2  # structure preserved, nothing merged
    assert np.array_equal(coarse.total_weight(), hg.total_weight())


def test_coarsen_singleton_nets_dropped():
    nets = [[3], [7], [0, 1], [0, 1]]
    hg = Hypergraph.from_net_lists(nets, nvertices=8)
    cmap, coarse = coarsen_once(hg, as_generator(1))
    # 0 and 1 merge via their shared pair nets; both pair nets then
    # collapse to single-pin nets and vanish with the singletons.
    assert cmap[0] == cmap[1]
    assert coarse.nnets == 0


def test_coarsen_merges_identical_nets_costs_summed():
    nets = [[0, 1, 2], [0, 1, 2], [3, 4]]
    hg = Hypergraph.from_net_lists(
        nets, nvertices=6, ncosts=np.array([2, 5, 1])
    )
    # Identity contraction (no rng-dependent matching): merge only.
    from repro.hypergraph.coarsen import _contract

    coarse = _contract(hg, np.arange(6), 6)
    assert coarse.nnets == 2
    assert sorted(coarse.ncosts.tolist()) == [1, 7]
    assert coarse.ncosts.sum() == hg.ncosts.sum()


def test_coarsen_no_nets():
    hg = Hypergraph.from_net_lists([], nvertices=5)
    cmap, coarse = coarsen_once(hg, as_generator(2))
    assert coarse.nnets == 0
    assert coarse.total_weight()[0] == 5


# ----------------------------------------------------------------------
# FM: multi-constraint infeasible-projection repair
# ----------------------------------------------------------------------


def test_fm_repairs_multiconstraint_infeasible_start():
    """A projected partition violating both constraints must be repaired.

    Every vertex carries weight in both constraints (so each move
    strictly reduces the worst violation — moves that leave the worst
    violation unchanged are inadmissible by design, in the seed
    implementation and the rewrite alike).
    """
    n = 40
    w = np.ones((n, 2), dtype=np.int64)
    w[::2, 1] = 3  # skewed second constraint
    hg = Hypergraph.from_net_lists(
        [[i, (i + 1) % n] for i in range(n)], nvertices=n, vweights=w
    )
    part = np.zeros(n, dtype=np.int8)  # everything on side 0: infeasible
    t = hg.total_weight().astype(float)
    targets = (t / 2, t / 2)
    limits = np.stack([t / 2 * 1.1, t / 2 * 1.1])
    v0 = _violation(part_weights(hg, part).astype(float), limits)
    out, cut = fm_refine(hg, part, targets, 0.1, max_passes=8)
    v1 = _violation(part_weights(hg, out).astype(float), limits)
    assert v0 > 1.0
    assert v1 < v0  # violation strictly reduced
    assert v1 <= 1.0 + 1e-9  # and fully repaired on this easy instance
    assert cut == bisection_cut(hg, out)


@pytest.mark.parametrize("seed", [0, 7, 23, 101])
def test_fm_incremental_gains_consistent_cut(seed):
    """Across multiple passes the incrementally maintained gains must
    keep the reported cut equal to a from-scratch recount."""
    rng = as_generator(seed)
    hg = _random_hg(rng, n=40, nnets=60, max_pins=6, ncon=2)
    part = rng.integers(0, 2, 40).astype(np.int8)
    t = hg.total_weight().astype(float)
    refined, cut = fm_refine(hg, part, (t / 2, t / 2), 0.15, max_passes=6)
    assert cut == bisection_cut(hg, refined)


# ----------------------------------------------------------------------
# K-way polish: never increases connectivity-1
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 5, 17])
def test_kway_polish_never_increases_cost(seed):
    rng = as_generator(seed)
    hg = _random_hg(rng, n=60, nnets=90, max_pins=6)
    part = rng.integers(0, 6, 60)
    before = connectivity_minus_one(hg, part)
    polished = kway_greedy_refine(hg, part, 6, epsilon=0.5)
    assert connectivity_minus_one(hg, polished) <= before


# ----------------------------------------------------------------------
# Stage spans
# ----------------------------------------------------------------------


def test_partition_profile_stages(medium_square):
    hg = column_net_model(medium_square)
    with obs.tracing() as tr:
        partition_kway(hg, 8, PartitionConfig(seed=1))
    times = obs.stage_times(tr, "partition")
    # A kernel build on first use adds a trailing "native" row.
    assert [s for s in times if s != "native"] == ["coarsen", "initial", "refine", "kway"]
    assert all(s >= 0 for s in times.values()) and sum(times.values()) > 0
    counters = tr.total_counters()
    assert counters["partition.bisections"] == 7  # K=8 recursive bisection tree
    assert counters["partition.levels"] >= 0
    assert "partition.cut_before_kway" in counters
    table = obs.stage_table(tr, "partition", labels={"kway": "kway-polish"})
    assert "kway-polish" in table and "total" in table


def test_cli_partition_profile(capsys):
    from repro.cli import main

    rc = main(
        [
            "partition",
            "--matrix", "trdheim",
            "--scheme", "1d",
            "--k", "4",
            "--scale", "tiny",
            "--profile",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "coarsen" in out and "refine" in out and "kway-polish" in out
    # With --trace as well, one trace feeds both views.
    argv = ["partition", "--matrix", "trdheim", "--scheme", "1d", "--k", "4",
            "--scale", "tiny", "--profile", "--trace", "-"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "kway-polish" in out and "connectivity-1:" in out
    assert "  partition.coarsen" in out and "partition.kway" in out
