"""The partitioner's per-vertex and per-move loops on both backends.

``coarsen_once`` (the HCM matching and the contraction),
``greedy_growing``, ``random_bisection``, ``fm_refine`` (set-up and
pass loop) and ``kway_greedy_refine`` run their loops in C
(``kernels.c``) when the native backend resolves, else in NumPy.  The
contract is the native package's: same partitions, less time.  Pinned
here:

- every partitioner pin of ``test_partitioner_vectorized`` holds with
  the backend forced either way;
- an identity sweep: equal ``(part, cut)`` from ``fm_refine`` and equal
  ``kway_greedy_refine`` output over five matrix families, one and two
  balance constraints, and K in {2, 8, 64};
- an identity sweep of the V-cycle's front half: equal ``cmap`` and
  coarse hypergraphs level by level, equal initial bisections and the
  same random stream consumed, over the five families under the
  column-net and fine-grain models with one and two constraints, plus
  a tie-heavy unit-cost mesh, zero-cost nets and unscorable nets;
- the same sweep with every content hash masked to 0, so the
  contraction's net order rests on the index tie-break and its merges on
  the exact pin comparison alone; crafted contractions (all nets
  merging, nets collapsing to one pin, a same-key chain A, B, C with
  A == C != B, costs above 2**53, an empty hypergraph);
- the FM set-up state (pin counts, gains, side weights, cut) over the
  same five families, both models and both constraint counts;
- whole-``partition_kway`` identity, including fine-grain at K=64;
- the K-way polish never raises the connectivity-1 cost of the
  recursive-bisection partition, and the traced before/after counters
  on ``partition.kway`` are exactly those two costs;
- without a compiler, ``auto`` falls back to NumPy with the same
  partition;
- the duplicate-pin precondition, the debug-mode bounds guard and the
  dtype/layout check in front of every partitioner kernel.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import repro.native.build as native_build
from repro import obs
from repro.errors import ModelError, VerificationError
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
from repro.hypergraph.coarsen import _cluster_ids, _contract, _pair_scores, coarsen_once
from repro.hypergraph.initial import greedy_growing, random_bisection
from repro.hypergraph.kway import kway_greedy_refine
from repro.hypergraph.refine import (
    _context,
    _fm_setup,
    _target_array,
    bisection_cut,
    fm_refine,
)
from repro.native import DEBUG_ENV, get_kernels, ops, set_default_backend
from repro.native.build import _reset_native_state
from repro.rng import as_generator

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
# Identity sweep: NumPy and native loops give the same partitions
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


@pytest.mark.native
@pytest.mark.parametrize("ncon", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_refine_loops_identical_across_backends(family, ncon):
    hg = _model(family, ncon)
    t = hg.total_weight().astype(np.float64)
    rng = np.random.default_rng(17)
    for k in (2, 8, 64):
        # A random bisection refined at the per-level tolerance
        # partition_kway uses for K parts.
        eps = 1.03 ** (1.0 / np.log2(k)) - 1.0
        start = rng.integers(0, 2, hg.nvertices).astype(np.int8)
        targets = (t * 0.5, t * 0.5)
        (p_np, cut_np), (p_nat, cut_nat) = _on_both_backends(
            lambda: fm_refine(hg, start, targets, eps)
        )
        assert np.array_equal(p_np, p_nat), (family, ncon, k)
        assert cut_np == cut_nat == bisection_cut(hg, p_nat)
        kstart = rng.integers(0, k, hg.nvertices)
        k_np, k_nat = _on_both_backends(
            lambda: kway_greedy_refine(hg, kstart, k, epsilon=0.1)
        )
        assert np.array_equal(k_np, k_nat), (family, ncon, k)


@pytest.mark.native
@pytest.mark.parametrize("ncon", [1, 2])
def test_partition_kway_identical_across_backends(ncon):
    """The whole V-cycle (projection levels, trials, polish) at K=8."""
    hg = _model("knn", ncon)
    cfg = PartitionConfig(seed=4)
    want, got = _on_both_backends(lambda: partition_kway(hg, 8, cfg))
    assert np.array_equal(want, got)


@pytest.mark.native
def test_fm_zero_limit_identical_across_backends():
    """A constraint with zero total weight takes the zero-limit branch
    of the balance check on both backends."""
    hg = _model("mesh", 1)
    hg = Hypergraph(
        hg.xpins, hg.pins,
        np.column_stack([hg.vweights[:, 0], np.zeros(hg.nvertices, dtype=np.int64)]),
        hg.ncosts,
    )
    t = hg.total_weight().astype(np.float64)
    start = np.random.default_rng(3).integers(0, 2, hg.nvertices).astype(np.int8)
    (p_np, cut_np), (p_nat, cut_nat) = _on_both_backends(
        lambda: fm_refine(hg, start, (t / 2, t / 2), 0.05)
    )
    assert np.array_equal(p_np, p_nat)
    assert cut_np == cut_nat


@pytest.mark.native
def test_fine_grain_partition_kway_k64_identical_across_backends():
    hg = _model("rmat", 1, "fine-grain")
    cfg = PartitionConfig(seed=6)
    want, got = _on_both_backends(lambda: partition_kway(hg, 64, cfg))
    assert np.array_equal(want, got)


# ----------------------------------------------------------------------
# Identity sweep of the V-cycle's front half: matching, initial bisections
# ----------------------------------------------------------------------

_COARSE_ARRAYS = ("xpins", "pins", "vweights", "ncosts", "xnets", "nets")


def _front_half(hg: Hypergraph, seed: int, max_net_size: int = 200) -> list:
    """Every coarsening level's ``cmap`` and coarse arrays down to 40
    vertices, greedy-growing and random bisections of the finest and
    the coarsest level at two targets, then one more draw from each
    random stream (both backends must consume the same numbers)."""
    rng = as_generator(seed)
    out = []
    levels = [hg]
    while levels[-1].nvertices > 40 and len(levels) < 40:
        cmap, coarse = coarsen_once(levels[-1], rng, max_net_size=max_net_size)
        out.append(cmap)
        out.extend(getattr(coarse, name) for name in _COARSE_ARRAYS)
        if coarse.nvertices == levels[-1].nvertices:
            break
        levels.append(coarse)
    out.append(rng.integers(1 << 62))
    trial_rng = as_generator(seed + 1)
    for level in (levels[0], levels[-1]):
        t = level.total_weight().astype(np.float64)
        for frac in (0.5, 0.3):
            targets = (t * frac, t * (1 - frac))
            out.append(greedy_growing(level, targets, trial_rng))
            out.append(random_bisection(level, targets, trial_rng))
    out.append(trial_rng.integers(1 << 62))
    return out


def _assert_same(want: list, got: list, label) -> None:
    assert len(want) == len(got), label
    for i, (a, b) in enumerate(zip(want, got)):
        assert np.asarray(a).dtype == np.asarray(b).dtype, (label, i)
        assert np.array_equal(a, b), (label, i)


@pytest.mark.native
@pytest.mark.parametrize("ncon", [1, 2])
@pytest.mark.parametrize("model", ["column-net", "fine-grain"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_front_half_identical_across_backends(family, model, ncon):
    hg = _model(family, ncon, model)
    want, got = _on_both_backends(lambda: _front_half(hg, seed=7))
    _assert_same(want, got, (family, model, ncon))


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
        want, got = _on_both_backends(lambda: _front_half(hg, seed))
        _assert_same(want, got, seed)


@pytest.mark.native
def test_front_half_identical_with_zero_cost_nets():
    base = _model("circuit", 2)
    costs = np.random.default_rng(2).integers(0, 3, base.nnets)  # a third cost 0
    some_free = Hypergraph(base.xpins, base.pins, base.vweights, costs)
    want, got = _on_both_backends(lambda: _front_half(some_free, seed=5))
    _assert_same(want, got, "some zero-cost nets")
    free = Hypergraph(
        base.xpins, base.pins, base.vweights, np.zeros(base.nnets, dtype=np.int64)
    )
    want, got = _on_both_backends(lambda: _front_half(free, seed=5))
    _assert_same(want, got, "all nets cost 0")
    assert np.array_equal(want[0], np.arange(free.nvertices))  # no positive score


@pytest.mark.native
def test_greedy_growing_sums_gains_in_net_order():
    """Vertex 0 shares nets of 3, 4 and 7 pins with vertex 1 and nets of
    7, 4 and 3 pins with vertex 2, in ascending net id.  Summed in net
    order their gains are (1/2 + 1/3) + 1/6 < (1/6 + 1/3) + 1/2, so once
    0 seeds, vertex 2 must be absorbed next; any other summation order
    picks vertex 1.  Padding vertices are too heavy to absorb."""
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
            lambda: greedy_growing(hg, targets, as_generator(seed))
        )
        assert np.array_equal(want, got), seed
        # The seed is the first light vertex of the random order.
        first = next(int(v) for v in as_generator(seed).permutation(pad) if v < 3)
        firsts.add(first)
        assert np.flatnonzero(want == 0).tolist() == ([0, 1] if first == 1 else [0, 2])
    assert 0 in firsts


@pytest.mark.native
def test_front_half_identical_when_no_net_scores():
    """Every net above ``max_net_size``: nothing matches and neither
    backend draws a visitation order."""
    hg = Hypergraph.from_net_lists(
        [list(range(i, i + 12)) for i in range(0, 60, 4)], nvertices=72
    )
    want, got = _on_both_backends(lambda: _front_half(hg, seed=3, max_net_size=5))
    _assert_same(want, got, "unscorable")
    assert np.array_equal(want[0], np.arange(72))
    assert want[len(_COARSE_ARRAYS) + 1] == as_generator(3).integers(1 << 62)


# ----------------------------------------------------------------------
# Contraction and FM set-up in C
# ----------------------------------------------------------------------


@pytest.mark.native
@pytest.mark.parametrize("family", ["circuit", "mesh", "rmat"])
def test_front_half_identical_with_colliding_hashes(family, monkeypatch):
    """Every content hash masked to 0: all nets of one size share a key,
    so the coarse net order rests on the index tie-break and every merge
    on the exact comparison of adjacent nets."""
    monkeypatch.setattr(coarsen, "_HASH_MASK", 0)
    for model in ("column-net", "fine-grain"):
        hg = _model(family, 2, model)
        want, got = _on_both_backends(lambda: _front_half(hg, seed=9))
        _assert_same(want, got, (family, model))


def _contract_both(hg: Hypergraph, mate) -> Hypergraph:
    """Contract ``hg`` along ``mate`` with the reference and the kernel,
    assert they agree, and return the reference's coarse hypergraph."""
    mate = np.asarray(mate, dtype=np.int64)
    cmap, ncoarse = _cluster_ids(mate)
    want = _contract(hg, cmap, ncoarse)
    got_cmap, got = ops.contract(
        get_kernels(), xpins=hg.xpins, pins=hg.pins, ncosts=hg.ncosts,
        vweights=hg.vweights, mate=mate, hash_mask=coarsen._HASH_MASK,
    )
    assert np.array_equal(cmap, got_cmap)
    _assert_same(
        [getattr(want, name) for name in _COARSE_ARRAYS],
        [got[name] for name in _COARSE_ARRAYS],
        "contract",
    )
    return want


@pytest.mark.native
def test_contraction_crafted_cases():
    # Every net identical after contraction: 0-1 and 2-3 merge, and all
    # four nets become {0, 1}.
    hg = Hypergraph.from_net_lists(
        [[0, 2], [1, 3], [3, 0], [2, 1]], 4, ncosts=np.array([1, 2, 3, 4])
    )
    c = _contract_both(hg, [1, 0, 3, 2])
    assert c.pins.tolist() == [0, 1] and c.ncosts.tolist() == [10]
    # Nets collapsing to one pin vanish; a repeated pin counts once.
    hg = Hypergraph.from_net_lists([[0, 1], [2, 3, 2], [4], [1, 4]], 5)
    c = _contract_both(hg, [1, 0, 3, 2, -1])
    assert c.xpins.tolist() == [0, 2] and c.pins.tolist() == [0, 2]
    assert c.vweights[:, 0].tolist() == [2, 2, 1]
    # Zero-cost nets merge and survive like any other.
    hg = Hypergraph.from_net_lists(
        [[0, 1], [1, 0], [1, 2]], 3, ncosts=np.array([0, 0, 5])
    )
    c = _contract_both(hg, [-1, -1, -1])
    assert sorted(c.ncosts.tolist()) == [0, 5]
    # Empty hypergraphs: no nets, only one-pin nets, no vertices.
    for hg in (
        Hypergraph.from_net_lists([], 5),
        Hypergraph.from_net_lists([[0], [1]], 3),
        Hypergraph.from_net_lists([], 0),
    ):
        c = _contract_both(hg, np.full(hg.nvertices, -1))
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
    c = _contract_both(hg, [-1, -1, -1])
    assert c.pins.tolist() == [0, 1, 0, 2, 0, 1]
    assert c.ncosts.tolist() == [1, 2, 12]
    monkeypatch.undo()  # real hashes: A, C and D share a key, B does not
    c = _contract_both(hg, [-1, -1, -1])
    assert sorted(c.ncosts.tolist()) == [2, 13]


@pytest.mark.native
def test_merged_costs_and_gain_bound_are_exact_int64_sums():
    """2**53 + 1 is not a float64: a float sum of the merged costs (or
    of a vertex's incident costs) would lose the 1."""
    big = 2**53
    hg = Hypergraph.from_net_lists(
        [[0, 1], [1, 0], [1, 2]], 3, ncosts=np.array([big, 1, 1])
    )
    c = _contract_both(hg, [-1, -1, -1])
    assert sorted(c.ncosts.tolist()) == [1, big + 1]
    assert _context(hg).gain_bound == big + 2  # vertex 1 is on all three


@pytest.mark.native
@pytest.mark.parametrize("ncon", [1, 2])
@pytest.mark.parametrize("model", ["column-net", "fine-grain"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fm_setup_identical_across_backends(family, model, ncon):
    """The kernel's state after set-up (``max_passes=0``) equals
    ``_fm_setup``'s, on the model and on one contracted level."""
    fine = _model(family, ncon, model)
    with forced_backend("numpy"):
        _, coarse = coarsen_once(fine, as_generator(1))
    rng = np.random.default_rng(13)
    for hg in (fine, coarse):
        ctx = _context(hg)
        t = hg.total_weight().astype(np.float64)
        for frac in (0.5, 0.3):
            part = rng.integers(0, 2, hg.nvertices).astype(np.int8)
            pc, cut, pw, gain = _fm_setup(hg, ctx, part)
            moved = part.copy()
            got = ops.fm_passes(
                get_kernels(), xpins=hg.xpins, pins=hg.pins, ncosts=hg.ncosts,
                vipt=ctx.vnets_indptr, vnets=ctx.vnets, vweights=hg.vweights,
                targets=_target_array((t * frac, t * (1 - frac))), epsilon=0.05,
                part=moved, gmax=ctx.gain_bound, max_passes=0, stall_fraction=8,
            )
            assert got[0] == cut, (family, model, ncon)
            _assert_same([pc, gain, pw], list(got[1:]), (family, model, ncon))
            assert np.array_equal(moved, part)


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


def _fm_args(hg, max_passes=2):
    """``ops.fm_passes`` keyword arguments for ``hg`` (every net of
    ``hg`` must have two or more pins)."""
    n = hg.nvertices
    t = hg.total_weight().astype(np.float64)
    return dict(
        xpins=hg.xpins, pins=hg.pins, ncosts=hg.ncosts, vipt=hg.xnets, vnets=hg.nets,
        vweights=hg.vweights, targets=_target_array((t / 2, t / 2)), epsilon=0.1,
        part=(np.arange(n) % 2).astype(np.int8), gmax=_context(hg).gain_bound,
        max_passes=max_passes, stall_fraction=8,
    )


@pytest.mark.native
def test_debug_guard_blocks_bad_partitioner_indices(monkeypatch):
    lib = get_kernels()
    monkeypatch.setenv(DEBUG_ENV, "1")
    hg = Hypergraph.from_net_lists([[0, 1], [1, 2, 3]], 4)
    state = _fm_args(hg)
    state["pins"] = np.array([0, 1, 1, 2, 9])  # vertex 9 does not exist
    with pytest.raises(VerificationError, match="fm_passes: pins indexes outside"):
        ops.fm_passes(lib, **state)
    state = _fm_args(hg)
    state["gmax"] = 1  # vertex 1 has nets of cost 2: no bucket for its gain
    with pytest.raises(VerificationError, match="fm_passes: gmax 1 is below"):
        ops.fm_passes(lib, **state)
    part = np.array([0, 1, 2, 3])
    pc = np.zeros((2, 3), dtype=np.int64)  # K=3, but part names part 3
    with pytest.raises(VerificationError, match="kway_passes: part indexes outside"):
        ops.kway_passes(
            lib, xnets=hg.xnets, nets=hg.nets, vipt=hg.xnets, vnets=hg.nets,
            ncosts=hg.ncosts, wfloat=np.ones((4, 1)), limit=np.array([4.0]),
            part=part, pc=pc, pw=np.zeros((3, 1)), max_passes=1,
        )
    # Valid state passes the guard and gives the unguarded result.
    t = hg.total_weight().astype(np.float64)
    start = np.array([0, 0, 1, 1], dtype=np.int8)
    with forced_backend("native"):
        guarded = fm_refine(hg, start, (t / 2, t / 2), 0.1)
    monkeypatch.delenv(DEBUG_ENV)
    with forced_backend("native"):
        plain = fm_refine(hg, start, (t / 2, t / 2), 0.1)
    assert np.array_equal(guarded[0], plain[0]) and guarded[1] == plain[1]


@pytest.mark.native
def test_debug_guard_blocks_bad_front_half_inputs(monkeypatch):
    lib = get_kernels()
    monkeypatch.setenv(DEBUG_ENV, "1")
    hg = Hypergraph.from_net_lists([[0, 1], [1, 2, 3]], 4)
    inc = dict(
        xpins=hg.xpins, pins=hg.pins, xnets=hg.xnets, nets=hg.nets,
        valid=np.ones(2, dtype=np.int8), contrib=np.array([1.0, 0.5]),
    )
    grow = dict(vweights=hg.vweights, t0=np.array([2.0]))
    with pytest.raises(VerificationError, match="hcm_match: order is not a permutation"):
        ops.hcm_match(lib, **inc, order=np.array([0, 1, 1, 3]))
    with pytest.raises(VerificationError, match="hcm_match: valid indexes outside"):
        ops.hcm_match(lib, **{**inc, "valid": np.array([1, 2])}, order=np.arange(4))
    with pytest.raises(VerificationError, match="greedy_grow: nets indexes outside"):
        ops.greedy_grow(lib, **{**inc, "nets": hg.nets + 5}, **grow, seed_order=np.arange(4))
    with pytest.raises(VerificationError, match="greedy_grow: seed_order is not a perm"):
        ops.greedy_grow(lib, **inc, **grow, seed_order=np.array([3, 2, 1, 1]))
    with pytest.raises(VerificationError, match="random_fill: order indexes outside"):
        ops.random_fill(lib, **grow, order=np.array([0, 1, 2, 4]))
    # Valid input passes the guard and gives the unguarded result.
    t = hg.total_weight().astype(np.float64)

    def front():
        return [
            coarsen_once(hg, as_generator(1))[0],
            greedy_growing(hg, (t / 2, t / 2), as_generator(2)),
            random_bisection(hg, (t / 2, t / 2), as_generator(3)),
        ]

    with forced_backend("native"):
        guarded = front()
    monkeypatch.delenv(DEBUG_ENV)
    with forced_backend("native"):
        plain = front()
    _assert_same(guarded, plain, "guarded")


@pytest.mark.native
def test_debug_guard_blocks_bad_contraction_inputs(monkeypatch):
    lib = get_kernels()
    monkeypatch.setenv(DEBUG_ENV, "1")
    hg = Hypergraph.from_net_lists([[0, 1], [1, 2, 3]], 4)
    args = dict(
        xpins=hg.xpins, pins=hg.pins, ncosts=hg.ncosts, vweights=hg.vweights,
        hash_mask=coarsen._HASH_MASK,
    )
    unmatched = np.full(4, -1)
    with pytest.raises(VerificationError, match="contract: mate \\+ 1 indexes outside"):
        ops.contract(lib, **args, mate=np.array([1, 0, 4, -1]))
    with pytest.raises(VerificationError, match="contract: mate is not a symmetric"):
        ops.contract(lib, **args, mate=np.array([1, 2, -1, -1]))
    with pytest.raises(VerificationError, match="contract: xpins is not a monotone"):
        ops.contract(lib, **{**args, "xpins": np.array([0, 3, 2])}, mate=unmatched)
    with pytest.raises(VerificationError, match="contract: pins indexes outside"):
        ops.contract(lib, **{**args, "pins": np.array([0, 1, 1, 2, 7])}, mate=unmatched)

    # Valid input passes the guard and gives the unguarded result.
    def front():
        cmap, coarse = coarsen_once(hg, as_generator(1))
        return [cmap, *(getattr(coarse, name) for name in _COARSE_ARRAYS)]

    with forced_backend("native"):
        guarded = front()
    monkeypatch.delenv(DEBUG_ENV)
    with forced_backend("native"):
        plain = front()
    _assert_same(guarded, plain, "guarded")


def _kernel_kwargs(hg: Hypergraph) -> dict:
    """Fresh valid keyword arguments of every partitioner kernel wrapper
    (``hg``'s nets all have two or more pins)."""
    n = hg.nvertices
    t0 = hg.total_weight().astype(np.float64) / 2
    incidence = dict(
        xpins=hg.xpins, pins=hg.pins, xnets=hg.xnets, nets=hg.nets,
        valid=np.ones(hg.nnets, dtype=bool), contrib=np.ones(hg.nnets),
    )
    part = np.arange(n) % 2
    pc = np.zeros((hg.nnets, 2), dtype=np.int64)
    np.add.at(pc, (hg.net_of_pin, part[hg.pins]), 1)
    pw = np.zeros((2, hg.nconstraints))
    np.add.at(pw, part, hg.vweights.astype(np.float64))
    return {
        "fm_passes": _fm_args(hg),
        "kway_passes": dict(
            xnets=hg.xnets, nets=hg.nets, vipt=hg.xnets, vnets=hg.nets,
            ncosts=hg.ncosts, wfloat=hg.vweights.astype(np.float64),
            limit=hg.total_weight().astype(np.float64), part=part, pc=pc, pw=pw,
            max_passes=1,
        ),
        "hcm_match": dict(**incidence, order=np.arange(n)),
        "greedy_grow": dict(
            **incidence, vweights=hg.vweights, t0=t0, seed_order=np.arange(n)
        ),
        "random_fill": dict(vweights=hg.vweights, t0=t0, order=np.arange(n)),
        "contract": dict(
            xpins=hg.xpins, pins=hg.pins, ncosts=hg.ncosts, vweights=hg.vweights,
            mate=np.full(n, -1), hash_mask=coarsen._HASH_MASK,
        ),
    }


@pytest.mark.native
@pytest.mark.parametrize(
    "kernel,arg",
    [
        ("fm_passes", "pins"), ("fm_passes", "vweights"), ("fm_passes", "targets"),
        ("fm_passes", "part"),
        ("kway_passes", "nets"), ("kway_passes", "wfloat"), ("kway_passes", "part"),
        ("kway_passes", "pc"),
        ("hcm_match", "xnets"), ("hcm_match", "contrib"), ("hcm_match", "order"),
        ("greedy_grow", "vweights"), ("greedy_grow", "t0"),
        ("greedy_grow", "seed_order"),
        ("random_fill", "vweights"), ("random_fill", "order"),
        ("contract", "pins"), ("contract", "vweights"), ("contract", "mate"),
    ],
)
def test_partitioner_kernels_reject_wrong_dtype_or_layout(kernel, arg):
    """The partitioner kernels take bare addresses; the wrapper refuses
    an array of another dtype or a non-C-contiguous one before the call
    instead of converting it (or letting C misread it)."""
    hg = Hypergraph.from_net_lists(
        [[i, (i + 1) % 12, (i + 5) % 12] for i in range(12)], 12,
        vweights=np.column_stack([np.ones(12), np.arange(12) % 3]).astype(np.int64),
    )
    wrapper = getattr(ops, kernel)
    wrapper(get_kernels(), **_kernel_kwargs(hg)[kernel])  # the valid call runs
    good = _kernel_kwargs(hg)[kernel][arg]
    wrong_dtype = good.astype(np.float32 if good.dtype.kind in "iu" else np.int64)
    strided = np.repeat(good, 2, axis=0)[::2]  # same values, every other row
    assert not strided.flags.c_contiguous
    for bad in (wrong_dtype, strided):
        kwargs = {**_kernel_kwargs(hg)[kernel], arg: bad}
        with pytest.raises(TypeError, match=f"native {kernel}: {arg} must be a C-contig"):
            wrapper(get_kernels(), **kwargs)
