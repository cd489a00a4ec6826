"""End-to-end pipelines: generate → partition → simulate → report.

These tests assert the paper's headline *relations* on tiny instances:
they are the contract the benchmark tables elaborate.
"""

import numpy as np
import pytest

from repro.core import (
    make_s2d_bounded,
    partition_s2d_medium_grain,
    s2d_heuristic,
    s2d_optimal,
)
from repro.generators import circuit_like, knn_mesh, rmat
from repro.hypergraph import PartitionConfig
from repro.partition import (
    partition_1d_rowwise,
    partition_2d_finegrain,
    partition_checkerboard,
)
from repro.simulate import MachineModel, evaluate

CFG = PartitionConfig(seed=99, ninitial=2, fm_passes=2)
MACHINE = MachineModel(alpha=20, beta=2, gamma=1)


@pytest.fixture(scope="module")
def fem():
    return knn_mesh(150, 10, seed=11)


@pytest.fixture(scope="module")
def densecircuit():
    return circuit_like(400, avg_degree=4, ndense=2, dense_fraction=0.4, seed=12)


def test_s2d_volume_leq_1d_everywhere(fem, densecircuit):
    for a in (fem, densecircuit):
        for k in (4, 8):
            p1 = partition_1d_rowwise(a, k, CFG)
            s = s2d_heuristic(a, x_part=p1.vectors, nparts=k)
            assert (
                evaluate(s).total_volume
                <= evaluate(p1).total_volume
            )


def test_s2d_reduction_larger_on_skewed_matrix(fem, densecircuit):
    """Paper: volume reduction correlates with row-degree skew.

    Dense rows only start spanning many parts once K is large enough,
    so the contrast is tested at K = 16 (the paper sees it at 256+).
    """
    k = 16

    def reduction(a):
        p1 = partition_1d_rowwise(a, k, CFG)
        s = s2d_heuristic(a, x_part=p1.vectors, nparts=k)
        v1 = evaluate(p1).total_volume
        vs = evaluate(s).total_volume
        return 1.0 - vs / v1

    assert reduction(densecircuit) > reduction(fem)


def test_s2d_latency_equals_1d(fem):
    k = 8
    p1 = partition_1d_rowwise(fem, k, CFG)
    s = s2d_heuristic(fem, x_part=p1.vectors, nparts=k)
    q1 = evaluate(p1, machine=MACHINE)
    qs = evaluate(s, machine=MACHINE)
    assert q1.avg_msgs == qs.avg_msgs
    assert q1.max_msgs == qs.max_msgs


def test_2d_finegrain_more_messages(fem):
    k = 8
    q1 = evaluate(partition_1d_rowwise(fem, k, CFG), machine=MACHINE)
    q2 = evaluate(partition_2d_finegrain(fem, k, CFG), machine=MACHINE)
    assert q2.avg_msgs > q1.avg_msgs


def test_1d_balance_collapses_on_dense_rows(densecircuit):
    """Paper Table V: 1D imbalance grows ~linearly with K."""
    li = {}
    for k in (4, 16):
        li[k] = partition_1d_rowwise(densecircuit, k, CFG).load_imbalance()
    assert li[16] > li[4]
    s = s2d_heuristic(
        densecircuit,
        x_part=partition_1d_rowwise(densecircuit, 16, CFG).vectors,
        nparts=16,
    )
    assert s.load_imbalance() < li[16]


def test_s2db_latency_bound_vs_s2d(densecircuit):
    k = 16
    p1 = partition_1d_rowwise(densecircuit, k, CFG)
    s = s2d_heuristic(densecircuit, x_part=p1.vectors, nparts=k)
    b = make_s2d_bounded(s)
    qs = evaluate(s, machine=MACHINE)
    qb = evaluate(b, machine=MACHINE)
    pr, pc = b.meta["mesh"]
    assert qb.max_msgs <= (pr - 1) + (pc - 1)
    # volume grows, but stays within 2x of plain s2D
    assert qs.total_volume <= qb.total_volume <= 2 * qs.total_volume
    # identical computational load
    assert qb.load_imbalance == qs.load_imbalance


def test_s2db_beats_checkerboard_on_dense_rows(densecircuit):
    """Paper Table VI: s2D-b wins balance AND volume on dense-row mats."""
    k = 16
    p1 = partition_1d_rowwise(densecircuit, k, CFG)
    s = s2d_heuristic(densecircuit, x_part=p1.vectors, nparts=k)
    b = make_s2d_bounded(s)
    cb = partition_checkerboard(densecircuit, k, CFG)
    qb = evaluate(b, machine=MACHINE)
    qcb = evaluate(cb, machine=MACHINE)
    assert qb.total_volume < qcb.total_volume


def test_mg_balance_vs_s2d_volume(densecircuit):
    """Paper Table VII trade-off: mg balances better, s2D moves less."""
    k = 8
    p1 = partition_1d_rowwise(densecircuit, k, CFG)
    s = s2d_heuristic(densecircuit, x_part=p1.vectors, nparts=k)
    mg = partition_s2d_medium_grain(densecircuit, k, CFG)
    assert mg.load_imbalance() <= s.load_imbalance() + 0.05


def test_rmat_full_pipeline():
    a = rmat(7, edge_factor=4, seed=3)
    k = 8
    p1 = partition_1d_rowwise(a, k, CFG)
    s = s2d_heuristic(a, x_part=p1.vectors, nparts=k)
    opt = s2d_optimal(a, x_part=p1.vectors, nparts=k)
    v1 = evaluate(p1).total_volume
    vs = evaluate(s).total_volume
    vo = evaluate(opt).total_volume
    assert vo <= vs <= v1
    q = evaluate(s, machine=MACHINE)
    assert q.speedup > 0


def test_all_schemes_one_matrix(fem):
    """Every scheme produces a valid, simulatable partition."""
    from repro.partition import partition_1d_boman

    k = 8
    p1 = partition_1d_rowwise(fem, k, CFG)
    schemes = [
        p1,
        partition_2d_finegrain(fem, k, CFG),
        partition_checkerboard(fem, k, CFG),
        partition_1d_boman(fem, k, base=p1),
        s2d_heuristic(fem, x_part=p1.vectors, nparts=k),
        partition_s2d_medium_grain(fem, k, CFG),
        make_s2d_bounded(s2d_heuristic(fem, x_part=p1.vectors, nparts=k)),
    ]
    for p in schemes:
        q = evaluate(p, machine=MACHINE)
        assert q.total_volume >= 0
        assert q.speedup > 0
        assert p.loads().sum() == fem.nnz
