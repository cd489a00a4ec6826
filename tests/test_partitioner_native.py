"""The partitioner's stage loops in C against their NumPy reference.

The HCM matching, the contraction, both initial bisections, the FM
set-up and pass loop and the K-way polish run in C only inside the two
whole-call drivers: ``repro_bisect`` (one ``multilevel_bisect`` V-cycle)
and ``repro_partition_kway`` (all of ``partition_kway``).  The stage
modules are NumPy only.  Every cross-backend test here runs a whole
call on both backends and checks equal parts, an equal cut and an equal
generator state after the call (and equal ``partition.*`` counters
where traced).  ``fm_passes=0`` isolates the V-cycle's front half:
coarsening, the initial trials and projection without refinement.
Pinned here:

- every partitioner pin of ``test_partitioner_vectorized`` holds with
  the backend forced either way;
- the FM passes and the K-way polish: bisections at the per-level
  tolerance of K in {2, 8, 64} and ``partition_kway`` at those K over
  five matrix families with one and two balance constraints, a
  constraint of zero total weight (the zero-limit branch), fine-grain
  at K=64 and a 2,304-vertex mesh at K=1024;
- the front half over the five families under the column-net and
  fine-grain models with one and two constraints at targets 0.5 and
  0.3, plus a tie-heavy unit-cost mesh, zero-cost and all-zero-cost
  nets, unscorable nets and a gain-summation-order trap for greedy
  growing;
- the same with every content hash masked to 0, so the contraction's
  net order rests on the index tie-break and its merges on the exact
  pin comparison alone; crafted contractions (all nets merging, nets
  collapsing to one pin, a same-key chain A, B, C with A == C != B,
  costs above 2**53, empty hypergraphs), whose NumPy results are also
  checked exactly;
- the FM set-up and first pass on the model and on one contracted
  level, over the same families, models and constraint counts;
- the K-way polish never raises the connectivity-1 cost of the
  recursive-bisection partition, and the traced before/after counters
  on ``partition.kway`` are exactly those two costs;
- without a compiler, ``auto`` falls back to NumPy with the same
  partition; the duplicate-pin precondition.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import repro.native.build as native_build
from repro import obs
from repro.errors import ModelError
from repro.generators.circuit import banded_with_dense_rows, circuit_like
from repro.generators.mesh import knn_mesh, poisson2d
from repro.generators.rmat import rmat
from repro.hypergraph import (
    Hypergraph,
    PartitionConfig,
    column_net_model,
    connectivity_minus_one,
    fine_grain_model,
    partition_kway,
)
from repro.hypergraph import coarsen
from repro.hypergraph.bisect import multilevel_bisect
from repro.hypergraph.coarsen import _cluster_ids, _contract, _pair_scores, coarsen_once
from repro.hypergraph.initial import greedy_growing
from repro.hypergraph.refine import _context, bisection_cut
from repro.native import set_default_backend
from repro.native.build import _reset_native_state
from repro.rng import as_generator, spawn

from tests import test_partitioner_vectorized as pins

BACKENDS = ["numpy", pytest.param("native", marks=pytest.mark.native)]


@contextmanager
def forced_backend(backend):
    set_default_backend(backend)
    try:
        yield
    finally:
        set_default_backend(None)


# ----------------------------------------------------------------------
# The existing partitioner pins, per backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_seeded_determinism_per_backend(backend, small_square):
    with forced_backend(backend):
        pins.test_partition_kway_seeded_determinism(small_square)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("matrix_idx", range(5))
def test_quality_within_5pct_of_legacy_per_backend(backend, matrix_idx):
    with forced_backend(backend):
        pins.test_quality_within_5pct_of_legacy(matrix_idx)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fm_repairs_multiconstraint_infeasible_start_per_backend(backend):
    with forced_backend(backend):
        pins.test_fm_repairs_multiconstraint_infeasible_start()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 7, 23, 101])
def test_fm_incremental_gains_consistent_cut_per_backend(backend, seed):
    with forced_backend(backend):
        pins.test_fm_incremental_gains_consistent_cut(seed)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [1, 5, 17])
def test_kway_polish_never_increases_cost_per_backend(backend, seed):
    with forced_backend(backend):
        pins.test_kway_polish_never_increases_cost(seed)


# ----------------------------------------------------------------------
# Whole calls on both backends
# ----------------------------------------------------------------------

FAMILIES = {
    "mesh": lambda: poisson2d(16),
    "knn": lambda: knn_mesh(300, 8, dim=2, seed=1),
    "rmat": lambda: rmat(8, edge_factor=6, seed=1),
    "dense-row": lambda: banded_with_dense_rows(300, ndense=3, seed=2),
    "circuit": lambda: circuit_like(300, seed=3),
}


def _model(family: str, ncon: int, model: str = "column-net") -> Hypergraph:
    a = FAMILIES[family]()
    hg = column_net_model(a) if model == "column-net" else fine_grain_model(a).hypergraph
    if ncon == 2:
        extra = np.random.default_rng(5).integers(0, 4, hg.nvertices)
        hg = Hypergraph(
            hg.xpins, hg.pins, np.column_stack([hg.vweights[:, 0], extra]), hg.ncosts
        )
    return hg


def _on_both_backends(fn):
    """``fn()`` under forced NumPy, then under forced native."""
    with forced_backend("numpy"):
        want = fn()
    with forced_backend("native"):
        got = fn()
    return want, got


def _counters(tr) -> dict:
    return {k: v for k, v in tr.total_counters().items() if k.startswith("partition.")}


def _bisect_both(hg: Hypergraph, frac: float = 0.5, seed: int = 7, epsilon=0.05, **kw):
    """``multilevel_bisect`` toward targets ``(frac, 1 - frac)`` of the
    total weight on both backends, each from a fresh generator: asserts
    equal sides, cut, final generator state and traced counters, checks
    the cut, and returns the NumPy ``(part, cut, counters)``."""
    t = hg.total_weight().astype(np.float64)

    def run():
        rng = as_generator(seed)
        with obs.tracing() as tr:
            part, cut = multilevel_bisect(hg, (t * frac, t * (1 - frac)), epsilon, rng, **kw)
        return part, cut, rng.bit_generator.state, _counters(tr)

    want, got = _on_both_backends(run)
    label = (frac, seed, kw)
    assert want[0].dtype == got[0].dtype == np.int8, label
    assert np.array_equal(want[0], got[0]), label
    assert want[1] == got[1] == bisection_cut(hg, want[0]), label
    assert want[2] == got[2], label
    assert want[3] == got[3], label
    return want[0], want[1], want[3]


def _kway_both(hg: Hypergraph, k: int, seed: int, **kw) -> np.ndarray:
    """``partition_kway`` on both backends with a caller's generator:
    asserts equal parts and final generator state; returns the parts."""

    def run():
        rng = as_generator(seed)
        part = partition_kway(hg, k, PartitionConfig(seed=rng, **kw))
        return part, rng.bit_generator.state

    (want, want_state), (got, got_state) = _on_both_backends(run)
    assert np.array_equal(want, got), (k, seed, kw)
    assert want_state == got_state, (k, seed, kw)
    return want


@pytest.mark.native
@pytest.mark.parametrize("ncon", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_refine_loops_identical_across_backends(family, ncon):
    """FM at the per-level tolerance partition_kway uses for K parts,
    and the K-way polish at K."""
    hg = _model(family, ncon)
    for k in (2, 8, 64):
        eps = 1.03 ** (1.0 / np.log2(k)) - 1.0
        _bisect_both(hg, 0.5, seed=k, epsilon=eps)
        _kway_both(hg, k, seed=17 + k, epsilon=0.1)


@pytest.mark.native
@pytest.mark.parametrize("ncon", [1, 2])
def test_partition_kway_identical_across_backends(ncon):
    """The whole V-cycle (projection levels, trials, polish) at K=8."""
    _kway_both(_model("knn", ncon), 8, seed=4)


@pytest.mark.native
def test_fm_zero_limit_identical_across_backends():
    """A constraint with zero total weight takes the zero-limit branch
    of the balance check on both backends; so does a side whose target
    on a weighted constraint is 0, where any move that puts weight of
    that constraint on the side is an infinite violation."""
    hg = _model("mesh", 1)
    hg = Hypergraph(
        hg.xpins, hg.pins,
        np.column_stack([hg.vweights[:, 0], np.zeros(hg.nvertices, dtype=np.int64)]),
        hg.ncosts,
    )
    for seed in range(3):
        _bisect_both(hg, 0.5, seed=seed)
        _bisect_both(hg, 0.3, seed=seed, coarsen_to=hg.nvertices)
    _kway_both(hg, 8, seed=3)

    hg = _model("mesh", 2)
    t = hg.total_weight().astype(np.float64)
    targets = (np.array([t[0] / 2, 0.0]), np.array([t[0] / 2, t[1]]))
    for seed in range(3):
        want, got = _on_both_backends(
            lambda: multilevel_bisect(hg, targets, 0.05, as_generator(seed))
        )
        assert np.array_equal(want[0], got[0]) and want[1] == got[1], seed
        assert not hg.vweights[want[0] == 0, 1].any()  # side 0 takes none of it


@pytest.mark.native
def test_fine_grain_partition_kway_k64_identical_across_backends():
    _kway_both(_model("rmat", 1, "fine-grain"), 64, seed=6)


@pytest.mark.native
def test_partition_kway_k1024_identical_across_backends():
    """The K-way polish at a large K: a 2,304-vertex mesh into 1024
    parts, about two vertices a part."""
    _kway_both(column_net_model(poisson2d(48)), 1024, seed=8)


# ----------------------------------------------------------------------
# The V-cycle's front half: matching, contraction, initial bisections
# ----------------------------------------------------------------------


def _front_half(hg: Hypergraph, seed: int, **kw) -> None:
    """Coarsening down to 40 vertices, all four initial trials and the
    projection, without refinement, at targets 0.5 and 0.3."""
    for frac in (0.5, 0.3):
        _bisect_both(hg, frac, seed=seed, coarsen_to=40, fm_passes=0, **kw)


@pytest.mark.native
@pytest.mark.parametrize("ncon", [1, 2])
@pytest.mark.parametrize("model", ["column-net", "fine-grain"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_front_half_identical_across_backends(family, model, ncon):
    _front_half(_model(family, ncon, model), seed=7)


@pytest.mark.native
def test_front_half_identical_on_tie_heavy_mesh():
    """A unit-cost 2-D mesh: most vertices have several neighbours of
    equal best score, so every tie must break toward the smaller id."""
    hg = column_net_model(poisson2d(24))
    scores = _pair_scores(hg, 200)
    assert scores.has_sorted_indices  # what makes argmax pick the smaller id
    tied = 0
    for v in range(hg.nvertices):
        lo, hi = scores.indptr[v], scores.indptr[v + 1]
        row = scores.data[lo:hi][scores.indices[lo:hi] != v]
        tied += row.size > 0 and np.count_nonzero(row == row.max()) > 1
    assert tied > hg.nvertices // 2
    for seed in range(4):
        _front_half(hg, seed)


@pytest.mark.native
def test_front_half_identical_with_zero_cost_nets():
    base = _model("circuit", 2)
    costs = np.random.default_rng(2).integers(0, 3, base.nnets)  # a third cost 0
    some_free = Hypergraph(base.xpins, base.pins, base.vweights, costs)
    _front_half(some_free, seed=5)
    _bisect_both(some_free, 0.3, seed=5)
    free = Hypergraph(
        base.xpins, base.pins, base.vweights, np.zeros(base.nnets, dtype=np.int64)
    )
    _front_half(free, seed=5)
    *_, counters = _bisect_both(free, 0.5, seed=5)
    assert counters["partition.levels"] == 0  # no positive score: nothing matches


@pytest.mark.native
def test_greedy_growing_sums_gains_in_net_order():
    """Vertex 0 shares nets of 3, 4 and 7 pins with vertex 1 and nets of
    7, 4 and 3 pins with vertex 2, in ascending net id.  Summed in net
    order their gains are (1/2 + 1/3) + 1/6 < (1/6 + 1/3) + 1/2, so once
    0 seeds, vertex 2 must be absorbed next; any other summation order
    picks vertex 1.  Padding vertices are too heavy to absorb.  One
    greedy trial without coarsening or refinement makes the V-cycle's
    result the greedy bisection of its spawned generator."""
    nets, pad = [], 3
    for u, sizes in ((1, (3, 4, 7)), (2, (7, 4, 3))):
        for size in sizes:
            nets.append([0, u, *range(pad, pad + size - 2)])
            pad += size - 2
    w = np.full(pad, 3, dtype=np.int64)
    w[:3] = 1
    hg = Hypergraph.from_net_lists(nets, pad, vweights=w)
    t = hg.total_weight().astype(np.float64)
    targets = (np.array([2.0]), t - 2.0)
    firsts = set()
    for seed in range(12):
        want, got = _on_both_backends(
            lambda: multilevel_bisect(
                hg, targets, 0.0, as_generator(seed), coarsen_to=pad, ninitial=1,
                fm_passes=0,
            )[0]
        )
        assert np.array_equal(want, got), seed
        grown = greedy_growing(hg, targets, spawn(as_generator(seed), 1)[0])
        assert np.array_equal(grown, want), seed
        # The seed is the first light vertex of the trial's random order.
        order = spawn(as_generator(seed), 1)[0].permutation(pad)
        first = next(int(v) for v in order if v < 3)
        firsts.add(first)
        assert np.flatnonzero(grown == 0).tolist() == ([0, 1] if first == 1 else [0, 2])
    assert 0 in firsts


@pytest.mark.native
def test_front_half_identical_when_no_net_scores():
    """Every net above ``max_net_size``: nothing matches and neither
    backend draws a visitation order, so the V-cycle's only draws are
    the spawn of its trial streams."""
    hg = Hypergraph.from_net_lists(
        [list(range(i, i + 12)) for i in range(0, 60, 4)], nvertices=72
    )
    t = hg.total_weight().astype(np.float64)
    for frac in (0.5, 0.3):
        *_, counters = _bisect_both(hg, frac, seed=3, coarsen_to=40, max_net_size=5)
        assert counters["partition.levels"] == 0

    def state_after(fn):
        rng = as_generator(3)
        fn(rng)
        return rng.bit_generator.state

    want = state_after(lambda g: spawn(g, 4))
    with forced_backend("native"):
        got = state_after(
            lambda g: multilevel_bisect(hg, (t / 2, t / 2), 0.05, g, coarsen_to=40,
                                        max_net_size=5)
        )
    assert got == want


@pytest.mark.native
@pytest.mark.parametrize("family", ["circuit", "mesh", "rmat"])
def test_front_half_identical_with_colliding_hashes(family, monkeypatch):
    """Every content hash masked to 0: all nets of one size share a key,
    so the coarse net order rests on the index tie-break and every merge
    on the exact comparison of adjacent nets."""
    monkeypatch.setattr(coarsen, "_HASH_MASK", 0)
    for model in ("column-net", "fine-grain"):
        hg = _model(family, 2, model)
        _front_half(hg, seed=9)
        _bisect_both(hg, 0.5, seed=9, coarsen_to=40)


# ----------------------------------------------------------------------
# Contraction and FM set-up
# ----------------------------------------------------------------------


def _contract_numpy(hg: Hypergraph, mate) -> Hypergraph:
    """The NumPy contraction of ``hg`` along ``mate``, checked against
    the whole V-cycle on both backends over the same hypergraph
    (coarsened down to two vertices)."""
    mate = np.asarray(mate, dtype=np.int64)
    cmap, ncoarse = _cluster_ids(mate)
    for seed in range(3):
        _bisect_both(hg, 0.5, seed=seed, coarsen_to=2)
    return _contract(hg, cmap, ncoarse)


@pytest.mark.native
def test_contraction_crafted_cases():
    # Every net identical after contraction: 0-1 and 2-3 merge, and all
    # four nets become {0, 1}.
    hg = Hypergraph.from_net_lists(
        [[0, 2], [1, 3], [3, 0], [2, 1]], 4, ncosts=np.array([1, 2, 3, 4])
    )
    c = _contract_numpy(hg, [1, 0, 3, 2])
    assert c.pins.tolist() == [0, 1] and c.ncosts.tolist() == [10]
    # Nets collapsing to one pin vanish; a repeated pin counts once.
    hg = Hypergraph.from_net_lists([[0, 1], [2, 3, 2], [4], [1, 4]], 5)
    c = _contract_numpy(hg, [1, 0, 3, 2, -1])
    assert c.xpins.tolist() == [0, 2] and c.pins.tolist() == [0, 2]
    assert c.vweights[:, 0].tolist() == [2, 2, 1]
    # Zero-cost nets merge and survive like any other.
    hg = Hypergraph.from_net_lists(
        [[0, 1], [1, 0], [1, 2]], 3, ncosts=np.array([0, 0, 5])
    )
    c = _contract_numpy(hg, [-1, -1, -1])
    assert sorted(c.ncosts.tolist()) == [0, 5]
    # Empty hypergraphs: no nets, only one-pin nets, no vertices.
    for hg in (
        Hypergraph.from_net_lists([], 5),
        Hypergraph.from_net_lists([[0], [1]], 3),
        Hypergraph.from_net_lists([], 0),
    ):
        c = _contract_numpy(hg, np.full(hg.nvertices, -1))
        assert c.nnets == 0 and c.nvertices == hg.nvertices


@pytest.mark.native
def test_contraction_merges_adjacent_pairs_only(monkeypatch):
    """A same-key chain A, B, C, D with A == C == D != B: C is compared
    with B, its predecessor, not with A, so only D merges (into C).
    Masking the hashes gives all four nets one key."""
    hg = Hypergraph.from_net_lists(
        [[0, 1], [0, 2], [1, 0], [0, 1]], 3, ncosts=np.array([1, 2, 4, 8])
    )
    monkeypatch.setattr(coarsen, "_HASH_MASK", 0)
    c = _contract_numpy(hg, [-1, -1, -1])
    assert c.pins.tolist() == [0, 1, 0, 2, 0, 1]
    assert c.ncosts.tolist() == [1, 2, 12]
    monkeypatch.undo()  # real hashes: A, C and D share a key, B does not
    c = _contract_numpy(hg, [-1, -1, -1])
    assert sorted(c.ncosts.tolist()) == [2, 13]


@pytest.mark.native
def test_merged_costs_and_gain_bound_are_exact_int64_sums():
    """2**53 + 1 is not a float64: a float sum of the merged costs (or
    of a vertex's incident costs) would lose the 1.  The gain buckets
    such a bound asks for fit on neither backend, and both refuse with
    MemoryError."""
    big = 2**53
    hg = Hypergraph.from_net_lists(
        [[0, 1], [1, 0], [1, 2]], 3, ncosts=np.array([big, 1, 1])
    )
    c = _contract(hg, *_cluster_ids(np.full(3, -1)))
    assert sorted(c.ncosts.tolist()) == [1, big + 1]
    assert _context(hg).gain_bound == big + 2  # vertex 1 is on all three
    t = hg.total_weight().astype(np.float64)
    for backend in ("numpy", "native"):
        with forced_backend(backend), pytest.raises(MemoryError):
            multilevel_bisect(hg, (t / 2, t / 2), 0.05, as_generator(1), coarsen_to=2)


@pytest.mark.native
@pytest.mark.parametrize("ncon", [1, 2])
@pytest.mark.parametrize("model", ["column-net", "fine-grain"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fm_setup_identical_across_backends(family, model, ncon):
    """The FM set-up (its cut is the result of ``fm_passes=0``) and one
    pass from it, on the model and on one contracted level, each
    bisected without coarsening."""
    fine = _model(family, ncon, model)
    with forced_backend("numpy"):
        _, coarse = coarsen_once(fine, as_generator(1))
    for hg in (fine, coarse):
        for frac in (0.5, 0.3):
            for passes in (0, 1):
                _bisect_both(
                    hg, frac, seed=13, coarsen_to=hg.nvertices, ninitial=2,
                    fm_passes=passes,
                )


@pytest.mark.native
def test_auto_without_compiler_falls_back_to_the_same_partition(monkeypatch):
    hg = _model("circuit", 2)
    cfg = PartitionConfig(seed=9)
    with forced_backend("native"):
        native = partition_kway(hg, 8, cfg)
    _reset_native_state()
    monkeypatch.setattr(native_build, "find_compiler", lambda: None)
    try:
        with forced_backend("auto"):
            fallback = partition_kway(hg, 8, cfg)
        assert native_build.resolve_backend("auto") == "numpy"
    finally:
        _reset_native_state()
    assert np.array_equal(native, fallback)


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kway_polish_invariant_through_partition_kway(family, k):
    """Same seed with and without the polish: the polish consumes no
    random numbers, so ``kway_passes=0`` yields the partition it
    starts from, and it only applies positive-gain moves."""
    hg = _model(family, 1)
    seed = 2 + k
    unpolished = partition_kway(hg, k, PartitionConfig(seed=seed, kway_passes=0))
    with obs.tracing() as tr:
        polished = partition_kway(hg, k, PartitionConfig(seed=seed))
    before = connectivity_minus_one(hg, unpolished)
    after = connectivity_minus_one(hg, polished)
    assert before >= after
    (kway,) = [sp for sp in tr.walk() if sp.name == "partition.kway"]
    assert kway.counters == {
        "partition.cut_before_kway": before,
        "partition.cut_after_kway": after,
    }


# ----------------------------------------------------------------------
# Preconditions and guards
# ----------------------------------------------------------------------


def test_partition_kway_rejects_duplicate_pins():
    hg = Hypergraph.from_net_lists([[0, 0, 1]], 2)
    with pytest.raises(ModelError, match="net 0 lists vertex 0 more than once"):
        partition_kway(hg, 2)
    ok = Hypergraph.from_net_lists([[0, 1], [1, 0]], 2)  # order is free
    assert partition_kway(ok, 2).shape == (2,)
