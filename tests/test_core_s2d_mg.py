"""s2D-mg: the medium-grain adaptation."""

import numpy as np

from repro.core import partition_s2d_medium_grain
from repro.generators import circuit_like
from repro.hypergraph import PartitionConfig, connectivity_minus_one, medium_grain_model
from repro.hypergraph.partitioner import partition_kway
from repro.simulate import evaluate

CFG = PartitionConfig(seed=77, ninitial=2, fm_passes=2)


def test_mg_partition_is_s2d(medium_square):
    p = partition_s2d_medium_grain(medium_square, 6, CFG)
    assert p.kind == "s2D-mg"
    p.validate_s2d()
    assert p.loads().sum() == medium_square.nnz


def test_mg_symmetric_vectors_for_square(medium_square):
    p = partition_s2d_medium_grain(medium_square, 4, CFG)
    # amalgamated composite model -> symmetric vector partition
    assert p.vectors.is_symmetric()


def test_mg_rectangular(small_rect):
    p = partition_s2d_medium_grain(small_rect, 3, CFG)
    p.validate_s2d()
    assert p.vectors.n == small_rect.shape[1]


def test_mg_volume_equals_connectivity_cut(medium_square):
    """The composite model's connectivity-1 equals the s2D volume."""
    model = medium_grain_model(medium_square)
    part = partition_kway(model.hypergraph, 4, CFG)
    nnz_part, x_part, y_part = model.decode(part)
    from repro.partition.types import SpMVPartition, VectorPartition

    p = SpMVPartition(
        matrix=medium_square,
        nnz_part=nnz_part,
        vectors=VectorPartition(x_part=x_part, y_part=y_part, nparts=4),
        kind="s2D-mg",
    )
    vol = evaluate(p).total_volume
    cut = connectivity_minus_one(model.hypergraph, part)
    assert vol == cut


def test_mg_balance_better_than_naive(medium_square):
    # the paper's Table VII: mg gets good balance via unit-ish vertices
    p = partition_s2d_medium_grain(medium_square, 4, CFG)
    assert p.load_imbalance() < 0.5


def test_mg_custom_split_mask(medium_square):
    to_row = np.ones(medium_square.nnz, dtype=bool)  # force all rowwise
    p = partition_s2d_medium_grain(medium_square, 4, CFG, to_row=to_row)
    assert p.is_1d_rowwise()


def test_shorter_line_split_beats_a_degenerate_split():
    """The shorter-line rule sends no more words than the worse of
    putting every nonzero rowwise or every nonzero columnwise."""
    a = circuit_like(500, avg_degree=5, ndense=2, dense_fraction=0.4, seed=22)
    cfg = PartitionConfig(seed=5)
    vols = {
        label: evaluate(
            partition_s2d_medium_grain(a, 16, cfg, to_row=mask)
        ).total_volume
        for label, mask in [
            ("shorter-line", None),
            ("all-row", np.ones(a.nnz, dtype=bool)),
            ("all-col", np.zeros(a.nnz, dtype=bool)),
        ]
    }
    assert vols["shorter-line"] <= max(vols["all-row"], vols["all-col"]), vols
