"""s2D-b: mesh routing, latency bound, combining, volume accounting."""

import numpy as np
import pytest

from repro.core import make_s2d_bounded, s2d_heuristic
from repro.errors import ConfigError
from repro.hypergraph import PartitionConfig
from repro.partition import partition_1d_rowwise
from repro.partition.checkerboard import mesh_shape
from repro.simulate import run_s2d_bounded, run_single_phase
from tests.comm_oracle import routed_words
from tests.conftest import random_s2d_partition


def _s2d(medium_square, k=8):
    p1 = partition_1d_rowwise(medium_square, k, PartitionConfig(seed=3))
    return s2d_heuristic(medium_square, x_part=p1.vectors, nparts=k)


def test_make_bounded_preserves_nonzeros(medium_square):
    s = _s2d(medium_square)
    b = make_s2d_bounded(s)
    assert b.kind == "s2D-b"
    assert np.array_equal(b.nnz_part, s.nnz_part)
    assert b.load_imbalance() == s.load_imbalance()
    pr, pc = b.meta["mesh"]
    assert pr * pc == 8


def test_bounded_rejects_bad_mesh(medium_square):
    s = _s2d(medium_square)
    with pytest.raises(ConfigError):
        make_s2d_bounded(s, shape=(3, 3))


def test_latency_bound_sqrt_k(medium_square):
    s = _s2d(medium_square, k=8)
    b = make_s2d_bounded(s)
    pr, pc = b.meta["mesh"]
    run = run_s2d_bounded(b)
    assert run.ledger.sent_msgs("route-row").max(initial=0) <= pc - 1
    assert run.ledger.sent_msgs("route-col").max(initial=0) <= pr - 1
    assert run.ledger.sent_msgs().max(initial=0) <= (pr - 1) + (pc - 1)


def test_bounded_volume_at_least_s2d(medium_square):
    # Two-hop routing can only add words relative to direct delivery.
    s = _s2d(medium_square)
    b = make_s2d_bounded(s)
    direct = run_single_phase(s).ledger.total_volume()
    routed = run_s2d_bounded(b).ledger.total_volume()
    assert routed >= direct
    # ...but combining keeps it under 2x.
    assert routed <= 2 * direct


def test_stats_match_executor(medium_square, rng):
    s = _s2d(medium_square)
    b = make_s2d_bounded(s)
    row, col = routed_words(b)
    run = run_s2d_bounded(b)
    assert row[0].sum() + col[0].sum() == run.ledger.total_volume()
    for hop, phase in ((row, "route-row"), (col, "route-col")):
        assert np.array_equal(hop[0], run.ledger.sent_volume(phase))
        assert np.array_equal(hop[1], run.ledger.recv_volume(phase))
        assert np.array_equal(hop[2], run.ledger.sent_msgs(phase))
        assert np.array_equal(hop[3], run.ledger.recv_msgs(phase))


def test_stats_match_executor_random_partition(small_square, rng):
    p = random_s2d_partition(rng, small_square, 4)
    b = make_s2d_bounded(p, shape=mesh_shape(4))
    row, col = routed_words(b)
    run = run_s2d_bounded(b)
    assert row[0].sum() + col[0].sum() == run.ledger.total_volume()
    assert np.array_equal(row[2] + col[2], run.ledger.sent_msgs())


def test_single_hop_when_same_mesh_row(small_square, rng):
    """Messages between processors sharing a mesh row take one hop."""
    p = random_s2d_partition(rng, small_square, 4)
    b = make_s2d_bounded(p, shape=(2, 2))
    run = run_s2d_bounded(b)
    # hop-1 goes only to same-row processors; hop-2 same-column --
    # verified inside the executor; here we check phases exist sanely
    assert set(run.ledger.phase_names) <= {"route-row", "route-col"}
