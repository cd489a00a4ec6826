"""The partitioner's per-move loops on both kernel backends.

``fm_refine`` and ``kway_greedy_refine`` run their pass loops in C
(``kernels.c``) when the native backend resolves, else in NumPy.  The
contract is the native package's: same partitions, less time.  Pinned
here:

- every partitioner pin of ``test_partitioner_vectorized`` holds with
  the backend forced either way;
- an identity sweep: equal ``(part, cut)`` from ``fm_refine`` and equal
  ``kway_greedy_refine`` output over five matrix families, one and two
  balance constraints, and K in {2, 8, 64};
- without a compiler, ``auto`` falls back to NumPy with the same
  partition;
- the duplicate-pin precondition and the debug-mode bounds guard.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import repro.native.build as native_build
from repro.errors import ModelError, VerificationError
from repro.generators.circuit import banded_with_dense_rows, circuit_like
from repro.generators.mesh import knn_mesh, poisson2d
from repro.generators.rmat import rmat
from repro.hypergraph import (
    Hypergraph,
    PartitionConfig,
    column_net_model,
    partition_kway,
)
from repro.hypergraph.kway import kway_greedy_refine
from repro.hypergraph.refine import bisection_cut, fm_refine
from repro.native import DEBUG_ENV, get_kernels, ops, set_default_backend
from repro.native.build import _reset_native_state

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


def _model(family: str, ncon: int) -> Hypergraph:
    hg = column_net_model(FAMILIES[family]())
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


# ----------------------------------------------------------------------
# Preconditions and guards
# ----------------------------------------------------------------------


def test_partition_kway_rejects_duplicate_pins():
    hg = Hypergraph.from_net_lists([[0, 0, 1]], 2)
    with pytest.raises(ModelError, match="net 0 lists vertex 0 more than once"):
        partition_kway(hg, 2)
    ok = Hypergraph.from_net_lists([[0, 1], [1, 0]], 2)  # order is free
    assert partition_kway(ok, 2).shape == (2,)


def _fm_state(hg):
    """Arrays shaped like fm_refine's pass-loop state (values are never
    run: every use below trips the guard first)."""
    n = hg.nvertices
    part = (np.arange(n) % 2).astype(np.int8)
    pc = np.zeros((hg.nnets, 2), dtype=np.int64)
    return dict(
        xpins=hg.xpins, pins=hg.pins, ncosts=hg.ncosts, vipt=hg.xnets, vnets=hg.nets,
        wfloat=np.ones((n, 1)), inv_limits=np.full((2, 1), 0.1),
        zero_limit=np.zeros((2, 1), dtype=np.int8), part=part, pc=pc,
        gain=np.zeros(n, dtype=np.int64), pw=np.full((2, 1), n / 2),
        gmax=4, max_passes=2, stall_fraction=8, cut=0,
    )


@pytest.mark.native
def test_debug_guard_blocks_bad_partitioner_indices(monkeypatch):
    lib = get_kernels()
    monkeypatch.setenv(DEBUG_ENV, "1")
    hg = Hypergraph.from_net_lists([[0, 1], [1, 2, 3]], 4)
    state = _fm_state(hg)
    state["pins"] = np.array([0, 1, 1, 2, 9])  # vertex 9 does not exist
    with pytest.raises(VerificationError, match="fm_passes: pins indexes outside"):
        ops.fm_passes(lib, **state)
    state = _fm_state(hg)
    state["gain"][2] = 5  # beyond the gain bound: no bucket for it
    with pytest.raises(VerificationError, match="gain \\+ gmax"):
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
