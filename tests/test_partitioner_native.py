"""The partitioner's C driver against its frozen reference results.

The HCM matching, the contraction, both initial bisections, the FM
set-up and pass loop and the K-way polish run in C only, inside the
two whole-call drivers: ``repro_bisect`` (one ``multilevel_bisect``
V-cycle) and ``repro_partition_kway`` (all of ``partition_kway``).
Their former NumPy reference is frozen as results in
``fixtures/partitioner_reference.json`` (see ``tests/golden_partitioner.py``):
every test here that compared the two backends now runs the same
whole calls and checks equal parts, an equal cut and an equal
generator state after the call against the fixture (and equal
``partition.*`` counters and span trees where traced).
``fm_passes=0`` isolates the V-cycle's front half: coarsening, the
initial trials and projection without refinement.  Pinned here:

- every partitioner pin of ``test_partitioner_vectorized`` holds with
  either setting of the deleted ``REPRO_NATIVE`` switch left in the
  environment (nothing reads it);
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
  costs above 2**53, empty hypergraphs);
- the FM set-up and first pass on the model and on a contracted level,
  over the same families, models and constraint counts;
- the K-way polish never raises the connectivity-1 cost of the
  recursive-bisection partition, and the traced before/after counters
  on ``partition.kway`` are exactly those two costs;
- without a compiler, partitioning raises the one ConfigError an
  explicit native backend raises; the duplicate-pin precondition.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.native.build as native_build
from repro import obs
from repro.errors import ConfigError, ModelError
from repro.generators.mesh import poisson2d
from repro.hypergraph import (
    Hypergraph,
    PartitionConfig,
    column_net_model,
    connectivity_minus_one,
    partition_kway,
)
from repro.hypergraph.bisect import multilevel_bisect
from repro.native.build import _reset_native_state
from repro.rng import as_generator, spawn

from tests import golden_partitioner as golden
from tests import test_partitioner_vectorized as pins
from tests.golden_partitioner import FAMILIES
from tests.golden_partitioner import model as _model

#: The deleted ``REPRO_NATIVE`` switch's two settings, by the backend
#: each used to force.  An environment may still hold either; nothing
#: reads it, so the partitioner pins hold under both.
STALE_SWITCH = {"numpy": "0", "native": "1"}
BACKENDS = [pytest.param(b, marks=pytest.mark.native) for b in STALE_SWITCH]


def _matches(prefix: str, threads=(None,)) -> None:
    """Every fixture case named ``prefix...`` gives its frozen result."""
    assert golden.check(prefix, threads) == []


# ----------------------------------------------------------------------
# The existing partitioner pins, under either stale switch setting
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_seeded_determinism_per_backend(backend, small_square, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", STALE_SWITCH[backend])
    pins.test_partition_kway_seeded_determinism(small_square)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("matrix_idx", range(5))
def test_quality_within_5pct_of_legacy_per_backend(backend, matrix_idx, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", STALE_SWITCH[backend])
    pins.test_quality_within_5pct_of_legacy(matrix_idx)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fm_repairs_multiconstraint_infeasible_start_per_backend(backend, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", STALE_SWITCH[backend])
    pins.test_fm_repairs_multiconstraint_infeasible_start()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 7, 23, 101])
def test_fm_incremental_gains_consistent_cut_per_backend(backend, seed, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", STALE_SWITCH[backend])
    pins.test_fm_incremental_gains_consistent_cut(seed)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [1, 5, 17])
def test_kway_polish_never_increases_cost_per_backend(backend, seed, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", STALE_SWITCH[backend])
    pins.test_kway_polish_never_increases_cost(seed)


# ----------------------------------------------------------------------
# Whole calls against the frozen reference
# ----------------------------------------------------------------------


@pytest.mark.native
@pytest.mark.parametrize("ncon", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_refine_loops_identical_across_backends(family, ncon):
    """FM at the per-level tolerance partition_kway uses for K parts,
    and the K-way polish at K."""
    _matches(f"refine_loops/{family}-{ncon}/")


@pytest.mark.native
@pytest.mark.parametrize("ncon", [1, 2])
def test_partition_kway_identical_across_backends(ncon):
    """The whole V-cycle (projection levels, trials, polish) at K=8."""
    _matches(f"kway_k8/knn-{ncon}")


@pytest.mark.native
def test_fm_zero_limit_identical_across_backends():
    """A constraint with zero total weight takes the zero-limit branch
    of the balance check; so does a side whose target on a weighted
    constraint is 0, where any move that puts weight of that constraint
    on the side is an infinite violation."""
    _matches("zero_limit/")
    _, hg, targets = golden.zero_limit_models()
    for seed in range(3):
        part, _ = multilevel_bisect(hg, targets, 0.05, as_generator(seed), PartitionConfig())
        assert not hg.vweights[part == 0, 1].any()  # side 0 takes none of it


@pytest.mark.native
def test_fine_grain_partition_kway_k64_identical_across_backends():
    _matches("fine_grain_k64/")


@pytest.mark.native
def test_partition_kway_k1024_identical_across_backends():
    """The K-way polish at a large K: a 2,304-vertex mesh into 1024
    parts, about two vertices a part."""
    _matches("k1024/")


# ----------------------------------------------------------------------
# Any thread count: the native driver's subtrees on 1-4 threads
# ----------------------------------------------------------------------


THREADS = (1, 2, 3, 4)


@pytest.mark.native
@pytest.mark.parametrize("model", ["column-net", "fine-grain"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_partition_kway_identical_at_any_thread_count(family, model):
    """K = 3 splits off a one-part side at the root; at K = 1024 most
    subproblems have fewer vertices than parts, so bisections leave a
    side empty; K = 5 and 7 give uneven splits, where a side is handed
    to a fork with half the thread budget."""
    _matches(f"threads/{family}-{model}/", THREADS)


@pytest.mark.native
def test_threads_with_one_part_and_empty_sides():
    """Five vertices into 16 parts: the splits below the root leave
    sides empty or with one part, and forks are made only for splits
    whose two sides both need a V-cycle."""
    _matches("threads/five-vertices/", THREADS)
    hg = golden.crafted()["five"]
    for k in (2, 3, 16):
        parts = partition_kway(hg, k, PartitionConfig(seed=1))
        assert parts.min() >= 0 and parts.max() < k


# ----------------------------------------------------------------------
# The V-cycle's front half: matching, contraction, initial bisections
# ----------------------------------------------------------------------


@pytest.mark.native
@pytest.mark.parametrize("ncon", [1, 2])
@pytest.mark.parametrize("model", ["column-net", "fine-grain"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_front_half_identical_across_backends(family, model, ncon):
    """Coarsening down to 40 vertices, all four initial trials and the
    projection, without refinement, at targets 0.5 and 0.3."""
    _matches(f"front_half/{family}-{model}-{ncon}/")


@pytest.mark.native
def test_front_half_identical_on_tie_heavy_mesh():
    """A unit-cost 2-D mesh: most vertices have several neighbours of
    equal best score, so every tie must break toward the smaller id."""
    hg = column_net_model(poisson2d(24))
    sizes = np.diff(hg.xpins)
    incidence = sp.csr_matrix(
        (np.ones(hg.npins), hg.pins, hg.xpins), shape=(hg.nnets, hg.nvertices)
    )
    share = np.where((sizes >= 2) & (sizes <= 200), hg.ncosts / np.maximum(sizes - 1, 1), 0)
    scores = (incidence.T @ sp.diags(share) @ incidence).tocsr()
    scores.setdiag(0)
    tied = 0
    for v in range(hg.nvertices):
        row = scores.data[scores.indptr[v] : scores.indptr[v + 1]]
        row = row[row > 0]
        tied += row.size > 0 and np.count_nonzero(row == row.max()) > 1
    assert tied > hg.nvertices // 2
    _matches("tie_heavy_mesh/")


@pytest.mark.native
def test_front_half_identical_with_zero_cost_nets():
    _matches("zero_cost/")
    free = golden.reference()["zero_cost/free/0.5"]
    assert free["counters"]["partition.levels"] == 0  # no positive score: nothing matches


@pytest.mark.native
def test_greedy_growing_sums_gains_in_net_order():
    """Vertex 0 shares nets of 3, 4 and 7 pins with vertex 1 and nets of
    7, 4 and 3 pins with vertex 2, in ascending net id.  Summed in net
    order their gains are (1/2 + 1/3) + 1/6 < (1/6 + 1/3) + 1/2, so once
    0 seeds, vertex 2 must be absorbed next; any other summation order
    picks vertex 1.  Padding vertices are too heavy to absorb.  One
    greedy trial without coarsening or refinement makes the V-cycle's
    result the greedy bisection of its spawned generator."""
    _matches("net_order/")
    hg, targets = golden.net_order_case()
    pad = hg.nvertices
    cfg = PartitionConfig(coarsen_to=pad, ninitial=1, fm_passes=0)
    firsts = set()
    for seed in range(12):
        grown, _ = multilevel_bisect(hg, targets, 0.0, as_generator(seed), cfg)
        # The seed is the first light vertex of the trial's random order.
        order = spawn(as_generator(seed), 1)[0].permutation(pad)
        first = next(int(v) for v in order if v < 3)
        firsts.add(first)
        assert np.flatnonzero(grown == 0).tolist() == ([0, 1] if first == 1 else [0, 2])
    assert 0 in firsts


@pytest.mark.native
def test_front_half_identical_when_no_net_scores():
    """Every net above ``max_net_size``: nothing matches and no
    visitation order is drawn, so the V-cycle's only draws are the
    spawn of its trial streams."""
    _matches("no_net_scores/")
    for frac in (0.5, 0.3):
        entry = golden.reference()[f"no_net_scores/{frac}"]
        assert entry["counters"]["partition.levels"] == 0
    hg = golden.crafted()["unscorable"]
    t = hg.total_weight().astype(np.float64)

    def state_after(fn):
        rng = as_generator(3)
        fn(rng)
        return rng.bit_generator.state

    want = state_after(lambda g: spawn(g, 4))
    got = state_after(
        lambda g: multilevel_bisect(
            hg, (t / 2, t / 2), 0.05, g, PartitionConfig(coarsen_to=40, max_net_size=5)
        )
    )
    assert got == want


@pytest.mark.native
@pytest.mark.parametrize("family", ["circuit", "mesh", "rmat"])
def test_front_half_identical_with_colliding_hashes(family):
    """Every content hash masked to 0: all nets of one size share a key,
    so the coarse net order rests on the index tie-break and every merge
    on the exact comparison of adjacent nets."""
    _matches(f"colliding_hashes/{family}-")


# ----------------------------------------------------------------------
# Contraction and FM set-up
# ----------------------------------------------------------------------


@pytest.mark.native
def test_contraction_crafted_cases():
    """Every net identical after contraction, nets collapsing to one pin
    (a repeated pin counting once), zero-cost nets merging, and empty
    hypergraphs (no nets, only one-pin nets, no vertices), each
    coarsened down to two vertices."""
    for name in ("all-merge", "collapse", "zero-cost", "no-nets", "one-pin-nets",
                 "no-vertices"):
        _matches(f"contraction/{name}/")


@pytest.mark.native
def test_contraction_merges_adjacent_pairs_only():
    """A same-key chain A, B, C, D with A == C == D != B: C is compared
    with B, its predecessor, not with A, so only D merges (into C).
    Masking the hashes gives all four nets one key."""
    _matches("adjacent_pairs/")


@pytest.mark.native
def test_merged_costs_and_gain_bound_are_exact_int64_sums():
    """2**53 + 1 is not a float64: the gain bound of vertex 1, on all
    three nets, is the exact int64 sum 2**53 + 2.  The gain buckets it
    asks for do not fit, and both drivers refuse with MemoryError."""
    big = 2**53
    hg = Hypergraph.from_net_lists(
        [[0, 1], [1, 0], [1, 2]], 3, ncosts=np.array([big, 1, 1])
    )
    t = hg.total_weight().astype(np.float64)
    with pytest.raises(MemoryError, match="native bisect: out of memory"):
        multilevel_bisect(hg, (t / 2, t / 2), 0.05, as_generator(1),
                          PartitionConfig(coarsen_to=2))
    with pytest.raises(MemoryError, match="native partition_kway: out of memory"):
        partition_kway(hg, 2, PartitionConfig(coarsen_to=2))


@pytest.mark.native
@pytest.mark.parametrize("ncon", [1, 2])
@pytest.mark.parametrize("model", ["column-net", "fine-grain"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fm_setup_identical_across_backends(family, model, ncon):
    """The FM set-up (its cut is the result of ``fm_passes=0``) and one
    pass from it, on the model and on a contracted level (vertex pairs
    merged), each bisected without coarsening."""
    _matches(f"fm_setup/{family}-{model}-{ncon}/")


def test_partition_kway_without_compiler_raises_config_error(monkeypatch):
    """A host without the kernels cannot partition: ``partition_kway`` and
    ``multilevel_bisect`` raise the ConfigError an explicit native
    backend raises, with its reason."""
    hg = _model("circuit", 2)
    t = hg.total_weight().astype(np.float64)
    _reset_native_state()
    monkeypatch.setattr(native_build, "find_compiler", lambda: None)
    try:
        with pytest.raises(ConfigError) as native:
            native_build.resolve_backend("native")
        assert str(native.value).startswith("native backend unavailable: no C compiler")
        with pytest.raises(ConfigError) as kway:
            partition_kway(hg, 8, PartitionConfig(seed=9))
        with pytest.raises(ConfigError) as vcycle:
            multilevel_bisect(hg, (t / 2, t / 2), 0.05, as_generator(9), PartitionConfig())
        assert str(kway.value) == str(vcycle.value) == str(native.value)
    finally:
        _reset_native_state()


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
