"""The partitioner core: determinism, quality vs the seed
implementation's frozen cuts, the shared array kernels, coarsening and
refinement edge cases observed through whole V-cycles, and the stage
spans the ``--profile`` table is folded from."""

import numpy as np
import pytest

from repro import obs
from repro.generators.suite import table1_suite
from repro.hypergraph import (
    Hypergraph,
    PartitionConfig,
    column_net_model,
    connectivity_minus_one,
    cutnet_cost,
    partition_kway,
)
from repro.hypergraph.bisect import multilevel_bisect
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


def _halves(hg):
    t = hg.total_weight().astype(float)
    return t / 2, t / 2


def _bisect(hg, seed, targets=None, epsilon=0.05, **cfg):
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
    """The front half (coarsening, trials, projection) twice from one
    seed: the same sides, cut and level count."""
    hg = column_net_model(medium_square)
    first = _bisect(hg, 4, fm_passes=0)
    second = _bisect(hg, 4, fm_passes=0)
    assert np.array_equal(first[0], second[0])
    assert first[1:] == second[1:] and first[2] > 0


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
    side, cut, levels = _bisect(hg, 0, coarsen_to=2, max_net_size=5)
    assert levels == 0
    assert cut == cutnet_cost(hg, side)
    assert np.bincount(side, minlength=2).tolist() == [7, 7]


def test_coarsen_singleton_nets_dropped():
    nets = [[3], [7], [0, 1], [0, 1]]
    hg = Hypergraph.from_net_lists(nets, nvertices=8)
    side, cut, levels = _bisect(hg, 1, coarsen_to=2)
    # 0 and 1 merge via their shared pair nets; both pair nets then
    # collapse to single-pin nets and vanish with the singletons, so
    # the next level has no net to match on and stalls.
    assert levels == 1
    assert side[0] == side[1] and cut == 0


def test_coarsen_merges_identical_nets_costs_summed():
    """Nets {0, 1, 2} (cost 2 and 5) and {3, 4} (cost 1), coarsened down
    to two vertices: the frozen results of the reference whose
    contraction merged the identical nets into one of cost 7."""
    from tests.golden_partitioner import check

    assert check("contraction/identical/") == []


def test_coarsen_no_nets():
    hg = Hypergraph.from_net_lists([], nvertices=5)
    side, cut, levels = _bisect(hg, 2, coarsen_to=2)
    assert levels == 0 and cut == 0
    assert sorted(np.bincount(side, minlength=2).tolist()) == [2, 3]


# ----------------------------------------------------------------------
# FM: multi-constraint infeasible-projection repair
# ----------------------------------------------------------------------


def test_fm_repairs_multiconstraint_infeasible_start():
    """A projected partition violating a constraint must be repaired.

    Coarsened down to two vertices, the coarsest bisection cannot meet
    the tolerance: without FM passes its projection stays infeasible,
    with them the V-cycle ends feasible.  Every vertex carries weight
    in both constraints (so each move strictly reduces the worst
    violation — moves that leave the worst violation unchanged are
    inadmissible by design).
    """
    n = 40
    w = np.ones((n, 2), dtype=np.int64)
    w[::2, 1] = 3  # skewed second constraint
    hg = Hypergraph.from_net_lists(
        [[i, (i + 1) % n] for i in range(n)], nvertices=n, vweights=w
    )
    targets = _halves(hg)
    start, *_ = _bisect(hg, 2, targets, 0.1, coarsen_to=2, ninitial=1, fm_passes=0)
    out, cut, _ = _bisect(hg, 2, targets, 0.1, coarsen_to=2, ninitial=1, fm_passes=8)
    v0 = _violation(hg, start, targets, 0.1)
    v1 = _violation(hg, out, targets, 0.1)
    assert v0 > 1.0
    assert v1 < v0  # violation strictly reduced
    assert v1 <= 1.0 + 1e-9  # and fully repaired on this easy instance
    assert cut == cutnet_cost(hg, out)


@pytest.mark.parametrize("seed", [0, 7, 23, 101])
def test_fm_incremental_gains_consistent_cut(seed):
    """Across multiple passes the incrementally maintained gains must
    keep the reported cut equal to a from-scratch recount."""
    rng = as_generator(seed)
    hg = _random_hg(rng, n=40, nnets=60, max_pins=6, ncon=2)
    refined, cut, _ = _bisect(hg, seed, epsilon=0.15, coarsen_to=40, fm_passes=6)
    assert cut == cutnet_cost(hg, refined)


# ----------------------------------------------------------------------
# K-way polish: never increases connectivity-1
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 5, 17])
def test_kway_polish_never_increases_cost(seed):
    rng = as_generator(seed)
    hg = _random_hg(rng, n=60, nnets=90, max_pins=6)
    raw = partition_kway(hg, 6, PartitionConfig(seed=seed, epsilon=0.5, kway_passes=0))
    polished = partition_kway(hg, 6, PartitionConfig(seed=seed, epsilon=0.5))
    assert connectivity_minus_one(hg, polished) <= connectivity_minus_one(hg, raw)


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
