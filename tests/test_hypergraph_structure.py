"""Hypergraph data structure and model construction."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ModelError
from repro.hypergraph import Hypergraph, column_net_model, fine_grain_model, row_net_model
from repro.hypergraph.models import medium_grain_model, medium_grain_split
from repro.sparse.coo import canonical_coo


def test_from_net_lists():
    hg = Hypergraph.from_net_lists([[0, 1], [1, 2], [0, 2, 3]], nvertices=4)
    assert hg.nvertices == 4
    assert hg.nnets == 3
    assert hg.npins == 7
    assert hg.pins[hg.xpins[2] : hg.xpins[3]].tolist() == [0, 2, 3]


def test_vertex_to_net_transpose():
    hg = Hypergraph.from_net_lists([[0, 1], [1, 2]], nvertices=3)
    assert hg.nets[hg.xnets[1] : hg.xnets[2]].tolist() == [0, 1]
    assert hg.nets[hg.xnets[0] : hg.xnets[1]].tolist() == [0]
    assert hg.vert_of_pin.tolist() == [0, 1, 1, 2]


def test_net_sizes_and_total_weight():
    hg = Hypergraph.from_net_lists([[0], [0, 1, 2]], nvertices=3)
    assert np.diff(hg.xpins).tolist() == [1, 3]
    assert hg.total_weight().tolist() == [3]


def test_multiconstraint_weights():
    w = np.array([[1, 10], [2, 20]])
    hg = Hypergraph.from_net_lists([[0, 1]], nvertices=2, vweights=w)
    assert hg.nconstraints == 2
    assert hg.total_weight().tolist() == [3, 30]


def test_validation_rejects_bad_pins():
    with pytest.raises(ModelError):
        Hypergraph(
            xpins=np.array([0, 1]),
            pins=np.array([5]),
            vweights=np.ones((2, 1)),
            ncosts=np.ones(1),
        )


def test_validation_rejects_negative_weights():
    with pytest.raises(ModelError):
        Hypergraph.from_net_lists([[0]], nvertices=1, vweights=np.array([-1]))


def test_column_net_model_shape(small_square):
    hg = column_net_model(small_square)
    assert hg.nvertices == small_square.shape[0]
    assert hg.nnets == small_square.shape[1]
    assert hg.npins == small_square.nnz
    # vertex weight = nnz in the row
    row_counts = np.bincount(small_square.row, minlength=small_square.shape[0])
    assert np.array_equal(hg.vweights[:, 0], row_counts)


def test_row_net_is_transpose_of_column_net(small_rect):
    hg_r = row_net_model(small_rect)
    hg_c = column_net_model(canonical_coo(small_rect.T))
    assert hg_r.nvertices == hg_c.nvertices
    assert hg_r.nnets == hg_c.nnets
    assert hg_r.npins == hg_c.npins


def test_fine_grain_model(small_square):
    model = fine_grain_model(small_square)
    hg = model.hypergraph
    assert hg.nvertices == small_square.nnz
    assert hg.nnets == sum(small_square.shape)
    # every vertex pins exactly one row net and one column net
    assert hg.npins == 2 * small_square.nnz


def test_fine_grain_empty_matrix_rejected():
    with pytest.raises(ModelError):
        fine_grain_model(sp.coo_matrix((3, 3)))


def test_fine_grain_decode_consistency(small_square):
    model = fine_grain_model(small_square)
    part = np.arange(model.hypergraph.nvertices) % 3
    nnz_part, x_part, y_part = model.decode(part, 3)
    assert np.array_equal(nnz_part, part)
    assert x_part.size == small_square.shape[1]
    assert y_part.size == small_square.shape[0]
    assert x_part.max() < 3 and y_part.max() < 3


def test_medium_grain_split_prefers_shorter_line():
    # col 0 has 3 nonzeros; row 2 has 1 -> (2, 0) goes with the row side
    a = sp.coo_matrix((np.ones(3), ([0, 1, 2], [0, 0, 0])), shape=(3, 2))
    to_row = medium_grain_split(a)
    assert to_row.tolist() == [True, True, True]
    b = sp.coo_matrix((np.ones(3), ([0, 0, 0], [0, 1, 2])), shape=(2, 3))
    # row 0 has 3 nonzeros, each col has 1 -> all column side
    assert medium_grain_split(b).tolist() == [False, False, False]


def test_medium_grain_model_square_amalgamated(small_square):
    model = medium_grain_model(small_square)
    assert model.amalgamated
    assert model.hypergraph.nvertices == small_square.shape[0]
    # total vertex weight = nnz (every nonzero weighted once)
    assert model.hypergraph.total_weight()[0] == small_square.nnz


def test_medium_grain_model_rectangular(small_rect):
    model = medium_grain_model(small_rect)
    assert not model.amalgamated
    assert model.hypergraph.nvertices == sum(small_rect.shape)


def test_medium_grain_decode_is_s2d(small_square, rng):
    model = medium_grain_model(small_square)
    part = rng.integers(0, 4, model.hypergraph.nvertices)
    nnz_part, x_part, y_part = model.decode(part)
    rp = y_part[small_square.row]
    cp = x_part[small_square.col]
    assert np.all((nnz_part == rp) | (nnz_part == cp))
