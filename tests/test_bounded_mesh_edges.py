"""Degenerate mesh shapes for the routed schemes: 1×K and K×1.

With a single mesh row the row phase is all-to-all and the column phase
vanishes (and vice versa); the routing must stay correct and the bounds
must degrade gracefully to K−1.
"""

import numpy as np
import pytest

from repro.core import make_s2d_bounded
from repro.hypergraph import PartitionConfig
from repro.partition import partition_1d_rowwise
from repro.core import s2d_heuristic
from repro.simulate import run_s2d_bounded, run_single_phase
from tests.comm_oracle import routed_words
from tests.conftest import random_s2d_partition

CFG = PartitionConfig(seed=71, ninitial=2, fm_passes=2)


@pytest.fixture(scope="module")
def s2d(request):
    import scipy.sparse as sp

    from repro.sparse.coo import canonical_coo

    a = canonical_coo(sp.random(120, 120, density=0.05, random_state=6) + sp.eye(120))
    p1 = partition_1d_rowwise(a, 6, CFG)
    return s2d_heuristic(a, x_part=p1.vectors, nparts=6)


@pytest.mark.parametrize("shape", [(1, 6), (6, 1), (2, 3), (3, 2)])
def test_all_mesh_shapes_execute(s2d, shape, rng):
    b = make_s2d_bounded(s2d, shape=shape)
    x = rng.random(120)
    run = run_s2d_bounded(b, x)
    assert np.allclose(run.y, s2d.matrix @ x)
    pr, pc = shape
    assert run.ledger.sent_msgs().max(initial=0) <= (pr - 1) + (pc - 1)


def test_single_row_mesh_is_single_hop(s2d):
    """Pr=1: every processor pair shares the mesh row, so the column
    phase carries nothing and the schedule collapses to direct sends."""
    ledger = run_s2d_bounded(make_s2d_bounded(s2d, shape=(1, 6))).ledger
    assert ledger.sent_volume("route-col").sum() == 0
    # volume equals the unrouted s2D volume: no forwarding at all
    assert ledger.total_volume() == run_single_phase(s2d).ledger.total_volume()


def test_single_col_mesh_is_single_hop(s2d):
    ledger = run_s2d_bounded(make_s2d_bounded(s2d, shape=(6, 1))).ledger
    assert ledger.sent_volume("route-row").sum() == 0
    assert ledger.total_volume() == run_single_phase(s2d).ledger.total_volume()


def test_stats_match_executor_all_shapes(s2d):
    for shape in ((1, 6), (6, 1), (2, 3)):
        b = make_s2d_bounded(s2d, shape=shape)
        row, col = routed_words(b)
        run = run_s2d_bounded(b)
        assert row[0].sum() + col[0].sum() == run.ledger.total_volume()


def test_random_partition_one_dim_mesh(small_square, rng):
    p = random_s2d_partition(rng, small_square, 4)
    b = make_s2d_bounded(p, shape=(1, 4))
    run = run_s2d_bounded(b)
    assert np.allclose(run.y, p.matrix @ (np.arange(1, 31) / 30))
