"""PartitionEngine: registry, memoization, and cache-transparency tests.

The engine must be a pure accelerator: ``plan()`` results are identical
whether the memo already holds other methods' intermediates or is
empty, and identical to calling the underlying construction functions
directly.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import s2d_heuristic, s2d_optimal
from repro.engine import (
    PartitionEngine,
    available_methods,
    register_method,
    resolve_method,
)
from repro.errors import ConfigError
from repro.native import find_compiler
from repro.partition import partition_1d_rowwise
from repro.partition import plan as plan_oneshot
from repro.simulate import evaluate
from repro.sparse.coo import canonical_coo

S2D_METHODS = ("s2d-optimal", "s2d-heuristic", "s2d-balanced", "s2d-bounded")
ALL_METHODS = S2D_METHODS + (
    "1d-rowwise",
    "1d-columnwise",
    "finegrain",
    "checkerboard",
    "medium-grain",
    "mondriaan",
    "1d-boman",
)


@pytest.fixture(scope="module")
def matrix():
    return canonical_coo(sp.random(90, 90, density=0.06, random_state=21) + sp.eye(90))


def test_registry_lists_all_methods():
    names = available_methods()
    for m in ALL_METHODS:
        assert m in names


def test_alias_resolution():
    assert resolve_method("s2d") == "s2d-heuristic"
    assert resolve_method("2d") == "finegrain"
    assert resolve_method("s2d-b") == "s2d-bounded"
    with pytest.raises(ConfigError):
        resolve_method("no-such-method")


@pytest.mark.parametrize("method", ALL_METHODS)
def test_plan_identical_with_and_without_cache(matrix, method):
    """A method planned on an engine whose memo already holds every
    other registered method's intermediates equals the same method
    planned on a fresh engine."""
    cached = PartitionEngine(matrix, seed=3)
    for other in available_methods():
        if other != method:
            cached.plan(other, 4)
    fresh = PartitionEngine(matrix, seed=3)
    p_on = cached.plan(method, 4).partition
    p_off = fresh.plan(method, 4).partition
    assert p_on.kind == p_off.kind
    assert np.array_equal(p_on.nnz_part, p_off.nnz_part)
    assert np.array_equal(p_on.vectors.x_part, p_off.vectors.x_part)
    assert np.array_equal(p_on.vectors.y_part, p_off.vectors.y_part)


def test_plan_memoized_and_cache_counted(matrix):
    eng = PartitionEngine(matrix, seed=3)
    first = eng.plan("s2d-heuristic", 4)
    hits_after_first = eng.cache_info()["hits"]
    again = eng.plan("s2d-heuristic", 4)
    assert again is first
    assert eng.cache_info()["hits"] > hits_after_first


def test_dropped_engine_is_freed_without_a_gc_pass(matrix):
    """Plans point at their engine, so the engine memoizes partitions
    and holds its plans weakly: dropping the engine and its plans frees
    everything by reference counting, not at some later full
    collection (the native apply state holds no back-reference either)."""
    gc.collect()
    gc.disable()
    try:
        eng = PartitionEngine(matrix, seed=3)
        plan = eng.plan("s2d-bounded", 4)
        plan.quality()
        cplan = eng.compiled_plan(plan)
        cplan.apply_y(backend="native" if find_compiler() else "numpy")
        engine_ref, cplan_ref = weakref.ref(eng), weakref.ref(cplan)
        del eng, plan, cplan
        assert engine_ref() is None and cplan_ref() is None
    finally:
        gc.enable()


def test_s2d_methods_share_block_analytics(matrix):
    eng = PartitionEngine(matrix, seed=3)
    eng.plan("s2d-heuristic", 4)
    entries_before = eng.cache_info()["entries"]
    eng.plan("s2d-optimal", 4)
    entries_after = eng.cache_info()["entries"]
    # s2d-optimal adds only its own plan entry: the 1D base plan, the
    # block structure and the block-DM results are all cache hits.
    assert entries_after == entries_before + 1


def test_engine_matches_direct_construction(matrix):
    eng = PartitionEngine(matrix, seed=3)
    config = eng.partitioner()
    base = partition_1d_rowwise(matrix, 4, config)
    direct_h = s2d_heuristic(matrix, x_part=base.vectors, nparts=4)
    direct_o = s2d_optimal(matrix, x_part=base.vectors, nparts=4)
    via_engine_h = eng.plan("s2d-heuristic", 4, config=config).partition
    via_engine_o = eng.plan("s2d-optimal", 4, config=config).partition
    assert np.array_equal(direct_h.nnz_part, via_engine_h.nnz_part)
    assert np.array_equal(direct_o.nnz_part, via_engine_o.nnz_part)


def test_quality_matches_evaluate(matrix):
    eng = PartitionEngine(matrix, seed=3)
    plan = eng.plan("s2d-heuristic", 4)
    q_engine = plan.quality()
    q_direct = evaluate(plan.partition, machine=eng.machine)
    assert q_engine.total_volume == q_direct.total_volume
    assert q_engine.load_imbalance == q_direct.load_imbalance
    assert q_engine.max_msgs == q_direct.max_msgs


def test_run_cached_across_machine_models(matrix):
    from repro.simulate import MachineModel

    eng = PartitionEngine(matrix, seed=3)
    plan = eng.plan("1d-rowwise", 4)
    q1 = plan.quality(MachineModel(alpha=20.0, beta=2.0, gamma=1.0))
    q2 = plan.quality(MachineModel(alpha=200.0, beta=2.0, gamma=1.0))
    # Same simulated run object, different pricing.
    assert q1.run is q2.run
    assert q1.total_volume == q2.total_volume
    assert q1.time < q2.time


def test_explicit_vectors_option(matrix):
    eng = PartitionEngine(matrix, seed=3)
    base = eng.plan("1d-columnwise", 4)
    p = eng.plan("s2d-heuristic", 4, vectors=base.partition.vectors).partition
    assert np.array_equal(p.vectors.x_part, base.partition.vectors.x_part)
    p.validate_s2d()


def test_register_custom_method(matrix):
    @register_method("all-to-zero")
    def _build(engine, nparts, config, opts):
        from repro.partition.oned import rowwise_from_y_part

        y = np.zeros(engine.matrix.shape[0], dtype=np.int64)
        return rowwise_from_y_part(engine.matrix, y, nparts)

    try:
        eng = PartitionEngine(matrix, seed=3)
        p = eng.plan("all-to-zero", 4).partition
        assert p.loads()[0] == matrix.nnz
    finally:
        from repro.engine.registry import METHODS

        METHODS.pop("all-to-zero", None)


def test_partition_plan_oneshot(matrix):
    p = plan_oneshot(matrix, "s2d", 4)
    assert p.kind == "s2D"
    p.validate_s2d()
