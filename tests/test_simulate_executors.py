"""The three SpMV executors: numerics, locality enforcement, phases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp

from repro.errors import SimulationError
from repro.hypergraph import PartitionConfig
from repro.partition import (
    partition_1d_boman,
    partition_1d_rowwise,
    partition_2d_finegrain,
    partition_checkerboard,
)
from repro.partition.types import SpMVPartition, VectorPartition
from repro.simulate import run_s2d_bounded, run_single_phase, run_two_phase
from tests.conftest import random_s2d_partition

CFG = PartitionConfig(seed=31, ninitial=2, fm_passes=2)


def test_single_phase_computes_product(small_square, rng):
    p = random_s2d_partition(rng, small_square, 4)
    x = rng.random(small_square.shape[1])
    run = run_single_phase(p, x)
    assert np.allclose(run.y, small_square @ x)


def test_single_phase_default_x(small_square, rng):
    p = random_s2d_partition(rng, small_square, 3)
    run = run_single_phase(p)
    assert run.y.shape == (small_square.shape[0],)
    assert run.nnz == small_square.nnz


def test_single_phase_1d_has_empty_precompute(medium_square):
    p = partition_1d_rowwise(medium_square, 4, CFG)
    run = run_single_phase(p)
    pre = next(ph for ph in run.phases if ph.name == "precompute")
    assert pre.flops.sum() == 0  # 1D rowwise: nothing to precompute


def test_single_phase_flop_conservation(small_square, rng):
    p = random_s2d_partition(rng, small_square, 4)
    run = run_single_phase(p)
    flops = run.total_flops()
    # 2 flops per nonzero + 1 per received partial word
    recv_partials = flops.sum() - 2 * small_square.nnz
    assert recv_partials >= 0


def test_single_phase_rejects_wrong_x_size(small_square, rng):
    p = random_s2d_partition(rng, small_square, 2)
    with pytest.raises(SimulationError, match="size"):
        run_single_phase(p, np.ones(7))


def test_single_phase_rejects_inadmissible(small_square):
    m = small_square
    p = SpMVPartition(
        matrix=m,
        nnz_part=np.ones(m.nnz, dtype=np.int64),
        vectors=VectorPartition(
            x_part=np.zeros(30, dtype=np.int64),
            y_part=np.zeros(30, dtype=np.int64),
            nparts=2,
        ),
    )
    with pytest.raises(Exception):
        run_single_phase(p)


def test_two_phase_computes_product(medium_square, rng):
    p = partition_2d_finegrain(medium_square, 4, CFG)
    x = rng.random(medium_square.shape[1])
    run = run_two_phase(p, x)
    assert np.allclose(run.y, medium_square @ x)


def test_two_phase_runs_any_partition(small_square, rng):
    # completely arbitrary nonzero owners (not s2D-admissible)
    m = small_square
    k = 4
    nnz_part = rng.integers(0, k, m.nnz)
    x_part = rng.integers(0, k, m.shape[1])
    y_part = rng.integers(0, k, m.shape[0])
    p = SpMVPartition(
        matrix=m,
        nnz_part=nnz_part,
        vectors=VectorPartition(x_part=x_part, y_part=y_part, nparts=k),
        kind="2D",
    )
    run = run_two_phase(p)
    assert np.allclose(run.y, m @ run.meta.get("x", np.arange(1, 31) / 30))


def test_two_phase_has_two_comm_phases(medium_square):
    p = partition_2d_finegrain(medium_square, 4, CFG)
    run = run_two_phase(p)
    assert "expand" in run.ledger.phase_names or run.ledger.total_msgs() == 0
    names = [ph.name for ph in run.phases]
    assert names == ["expand", "compute", "fold", "aggregate"]


def test_single_phase_has_one_comm_phase(medium_square):
    p = partition_1d_rowwise(medium_square, 4, CFG)
    run = run_single_phase(p)
    assert run.ledger.phase_names == ["expand-and-fold"]


def test_bounded_computes_product(medium_square, rng):
    from repro.core import make_s2d_bounded, s2d_heuristic

    p1 = partition_1d_rowwise(medium_square, 8, CFG)
    s = s2d_heuristic(medium_square, x_part=p1.vectors, nparts=8)
    b = make_s2d_bounded(s)
    x = rng.random(medium_square.shape[1])
    run = run_s2d_bounded(b, x)
    assert np.allclose(run.y, medium_square @ x)


def test_checkerboard_and_boman_verify(medium_square, rng):
    x = rng.random(medium_square.shape[1])
    for builder in (partition_checkerboard, partition_1d_boman):
        p = builder(medium_square, 8, CFG)
        run = run_two_phase(p, x)
        assert np.allclose(run.y, medium_square @ x)


def test_bounded_rejects_wrong_x_size(medium_square, rng):
    """Seed bug: run_s2d_bounded accepted a wrongly-sized x silently."""
    p = random_s2d_partition(rng, medium_square, 4)
    b = SpMVPartition(
        matrix=p.matrix, nnz_part=p.nnz_part, vectors=p.vectors, kind="s2D-b",
        meta={"mesh": (2, 2)},
    )
    with pytest.raises(SimulationError, match="size"):
        run_s2d_bounded(b, np.ones(7))


def test_bounded_rejects_inadmissible_classification(small_square):
    """Seed bug: an inadmissible partition could silently drop nonzeros
    and only fail (opaquely) at the final allclose."""
    m = small_square
    p = SpMVPartition(
        matrix=m,
        nnz_part=np.ones(m.nnz, dtype=np.int64),
        vectors=VectorPartition(
            x_part=np.zeros(30, dtype=np.int64),
            y_part=np.zeros(30, dtype=np.int64),
            nparts=2,
        ),
        kind="s2D-b",
        meta={"mesh": (1, 2)},
    )
    with pytest.raises(Exception):  # PartitionError or SimulationError
        run_s2d_bounded(p)


def test_bounded_matches_single_phase_volume_lower_bound(medium_square, rng):
    """Routing can only add words (two-hop items cost two), never lose any."""
    p = random_s2d_partition(rng, medium_square, 8)
    from repro.core import make_s2d_bounded

    v1 = run_single_phase(p).ledger.total_volume()
    vb = run_s2d_bounded(make_s2d_bounded(p)).ledger.total_volume()
    assert vb >= v1


def test_profiling_collects_phase_timings(medium_square, rng):
    from repro import obs

    p = random_s2d_partition(rng, medium_square, 4)
    with obs.tracing() as tr:
        run_single_phase(p)
        run_two_phase(p)
    assert tr.total_counters()["simulate.runs"] == 2
    phases = obs.stage_times(tr, "simulate")
    assert {"precompute", "exchange", "compute", "verify", "expand", "fold"} <= set(
        phases
    )
    assert sum(phases.values()) > 0
    assert "total" in obs.stage_table(tr, "simulate", title="phase")


def test_profiling_inactive_is_noop(medium_square, rng):
    from repro import obs

    assert obs.active_trace() is None
    p = random_s2d_partition(rng, medium_square, 4)
    with obs.span("simulate.outside") as sp:
        run_single_phase(p)  # must not fail without a trace
    assert sp is None and obs.active_trace() is None


def test_identity_matrix_no_communication():
    m = sp.eye(8, format="coo")
    y_part = np.arange(8) % 2
    p = SpMVPartition(
        matrix=m,
        nnz_part=y_part.copy(),
        vectors=VectorPartition(x_part=y_part.copy(), y_part=y_part, nparts=2),
        kind="1D",
    )
    run = run_single_phase(p)
    assert run.ledger.total_msgs() == 0
    assert np.allclose(run.y, np.arange(1, 9) / 8)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000), k=st.sampled_from([2, 4, 6]))
def test_all_executors_agree(seed, k):
    """Single-phase, two-phase and routed runs all produce A @ x."""
    rng = np.random.default_rng(seed)
    a = sp.random(20, 20, density=0.2, random_state=seed) + sp.eye(20)
    p = random_s2d_partition(rng, a, k)
    x = rng.random(20)
    y1 = run_single_phase(p, x).y
    y2 = run_two_phase(p, x).y
    from repro.core import make_s2d_bounded

    y3 = run_s2d_bounded(make_s2d_bounded(p), x).y
    ref = p.matrix @ x
    assert np.allclose(y1, ref)
    assert np.allclose(y2, ref)
    assert np.allclose(y3, ref)
