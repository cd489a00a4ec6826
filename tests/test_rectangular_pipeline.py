"""Rectangular matrices through the whole pipeline.

The paper's formulation is for general m×n matrices (Figure 1 itself is
10×13); these tests keep the rectangular paths honest.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import s2d_heuristic, s2d_optimal
from repro.hypergraph import PartitionConfig
from repro.partition import partition_1d_rowwise, partition_mondriaan
from repro.partition.vector import vector_partition_from_rows
from repro.simulate import evaluate, run_single_phase, run_two_phase
from repro.sparse.coo import canonical_coo
from repro.sparse.permute import spy_string

CFG = PartitionConfig(seed=23, ninitial=2, fm_passes=2)


@pytest.fixture(scope="module")
def rect():
    a = sp.random(60, 90, density=0.08, random_state=5, format="coo")
    # ensure no empty rows (keeps 1D loads meaningful)
    fill = sp.coo_matrix(
        (np.ones(60), (np.arange(60), np.arange(60) % 90)), shape=(60, 90)
    )
    return canonical_coo(a + fill)


def test_vector_partition_rectangular_conformal(rect):
    y = np.arange(60) % 4
    v = vector_partition_from_rows(rect, y, 4)
    assert v.n == 90 and v.m == 60
    assert not v.is_symmetric()
    assert v.x_part.max() < 4


def test_1d_rowwise_rect_single_phase(rect, rng):
    p = partition_1d_rowwise(rect, 4, CFG)
    x = rng.random(90)
    run = run_single_phase(p, x)
    assert np.allclose(run.y, rect @ x)


def test_s2d_rect_end_to_end(rect, rng):
    p1 = partition_1d_rowwise(rect, 4, CFG)
    s = s2d_heuristic(rect, x_part=p1.vectors, nparts=4)
    s.validate_s2d()
    assert (
        evaluate(s).total_volume
        <= evaluate(p1).total_volume
    )
    x = rng.random(90)
    assert np.allclose(run_single_phase(s, x).y, rect @ x)


def test_s2d_optimal_rect(rect):
    p1 = partition_1d_rowwise(rect, 3, CFG)
    opt = s2d_optimal(rect, x_part=p1.vectors, nparts=3)
    opt.validate_s2d()
    assert (
        evaluate(opt).total_volume
        <= evaluate(p1).total_volume
    )


def test_mondriaan_rect(rect, rng):
    p = partition_mondriaan(rect, 6, CFG)
    assert p.loads().sum() == rect.nnz
    x = rng.random(90)
    assert np.allclose(run_two_phase(p, x).y, rect @ x)


def test_spy_string_rect(rect):
    # just the top-left corner of a small custom rectangular case
    a = sp.coo_matrix((np.ones(2), ([0, 1], [2, 0])), shape=(2, 4))
    s = spy_string(a, np.array([0, 1]), x_part=np.array([0, 0, 1, 1]),
                   y_part=np.array([0, 1]))
    assert "1" in s and "2" in s


def test_boman_non_rowwise_base_is_rebased(rect):
    from repro.partition import partition_1d_boman, partition_2d_finegrain

    base = partition_2d_finegrain(rect, 4, CFG)  # not 1D rowwise
    p = partition_1d_boman(rect, 4, base=base)
    assert p.kind == "1D-b"
    assert p.loads().sum() == rect.nnz
