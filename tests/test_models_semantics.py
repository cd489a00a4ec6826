"""Model semantics: the cut of each hypergraph model equals the
communication volume of the scheme it encodes — the theorem each model
rests on, checked mechanically."""

import numpy as np

from repro.hypergraph import (
    PartitionConfig,
    column_net_model,
    connectivity_minus_one,
    fine_grain_model,
    partition_kway,
)
from repro.partition.oned import rowwise_from_y_part
from repro.partition.types import SpMVPartition, VectorPartition
from repro.rng import as_generator
from repro.simulate import run_single_phase, run_two_phase

CFG = PartitionConfig(seed=81, ninitial=2, fm_passes=2)


def test_column_net_cut_equals_rowwise_volume(medium_square):
    """Column-net connectivity-1 = expand volume of the 1D rowwise
    partition with the conformal (symmetric) x partition."""
    hg = column_net_model(medium_square)
    part = partition_kway(hg, 4, CFG)
    p = rowwise_from_y_part(medium_square, part, 4)
    vol = run_single_phase(p).ledger.total_volume()
    cut = connectivity_minus_one(hg, part)
    # Symmetric x partition: column j's net pins are its consumer rows;
    # the owner of x_j (row j's part) may not appear among them, in
    # which case the consumers' count is the full lambda, not lambda-1.
    # The exact identity holds when x_j's owner holds a nonzero in
    # column j (e.g. full diagonal) -- which medium_square has.
    assert vol == cut


def test_column_net_cut_random_partition(medium_square):
    hg = column_net_model(medium_square)
    rng = as_generator(9)
    part = rng.integers(0, 5, hg.nvertices)
    p = rowwise_from_y_part(medium_square, part, 5)
    assert run_single_phase(p).ledger.total_volume() == connectivity_minus_one(hg, part)


def test_fine_grain_cut_bounds_two_phase_volume(medium_square):
    """Fine-grain connectivity-1 ≥ expand+fold volume after consistent
    vector decoding (decoding to majority owners only removes traffic)."""
    model = fine_grain_model(medium_square)
    part = partition_kway(model.hypergraph, 4, CFG)
    nnz_part, x_part, y_part = model.decode(part, 4)
    p = SpMVPartition(
        matrix=medium_square,
        nnz_part=nnz_part,
        vectors=VectorPartition(x_part=x_part, y_part=y_part, nparts=4),
        kind="2D",
    )
    vol = run_two_phase(p).ledger.total_volume()
    cut = connectivity_minus_one(model.hypergraph, part)
    assert vol <= cut


def test_fine_grain_cut_exact_with_external_vectors(medium_square):
    """With vector owners forced to parts *not* holding any nonzero of
    the line, the fine-grain volume hits exactly cut + lines (each net
    pays its full λ)."""
    model = fine_grain_model(medium_square)
    rng = as_generator(10)
    part = rng.integers(0, 3, model.hypergraph.nvertices)
    # owners in a fresh part 3 that owns no nonzeros
    n = medium_square.shape[0]
    p = SpMVPartition(
        matrix=medium_square,
        nnz_part=part,
        vectors=VectorPartition(
            x_part=np.full(n, 3, dtype=np.int64),
            y_part=np.full(n, 3, dtype=np.int64),
            nparts=4,
        ),
        kind="2D",
    )
    vol = run_two_phase(p).ledger.total_volume()
    lam = connectivity_minus_one(model.hypergraph, part)
    nonempty_rows = np.unique(medium_square.row).size
    nonempty_cols = np.unique(medium_square.col).size
    assert vol == lam + nonempty_rows + nonempty_cols
