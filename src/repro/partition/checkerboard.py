"""2D-b Cartesian (checkerboard) partitioning.

The hypergraph-based checkerboard scheme of Çatalyürek & Aykanat
(2001) / Çatalyürek, Aykanat & Uçar (2010): rows are partitioned into
``Pr`` stripes with the column-net model; columns are then partitioned
into ``Pc`` groups with a *multi-constraint* row-net model whose vertex
weights are vectors — the nonzero counts of the column within each row
stripe — so that every mesh cell (not just every column group) ends up
balanced.  Processor ``(r, c)`` of the ``Pr × Pc`` virtual mesh owns
block ``(stripe r) × (group c)``.

Expand messages travel within mesh columns (≤ Pr − 1 per processor)
and fold messages within mesh rows (≤ Pc − 1), which is the bounded-
latency property the paper's Tables III and VI exercise.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.hypergraph import PartitionConfig, column_net_model, partition_kway
from repro.hypergraph.hypergraph import Hypergraph
from repro.partition.types import SpMVPartition, VectorPartition
from repro.sparse.coo import canonical_coo, coo_triplets

__all__ = ["mesh_shape", "partition_checkerboard", "mesh_coords"]


def mesh_shape(nparts: int) -> tuple[int, int]:
    """Nearly square ``(Pr, Pc)`` with ``Pr · Pc = nparts``.

    Picks the factor pair closest to √K (the paper's meshes are square:
    16 = 4×4, 64 = 8×8, 256 = 16×16, 1024 = 32×32, 4096 = 64×64).
    """
    best = (1, nparts)
    for pr in range(1, int(np.sqrt(nparts)) + 1):
        if nparts % pr == 0:
            best = (pr, nparts // pr)
    return best


def mesh_coords(p: int, pc: int) -> tuple[int, int]:
    """Mesh coordinates ``(r, c)`` of processor ``p`` (row-major)."""
    return divmod(p, pc)


def _multiconstraint_column_groups(
    m, row_stripe: np.ndarray, pr: int, pc: int, config: PartitionConfig
) -> np.ndarray:
    """Partition columns into ``pc`` groups balancing all ``pr`` stripes.

    Vertices are columns; vertex weight is the ``pr``-vector of nonzero
    counts per stripe; nets are rows (a cut row-net means its x/fold
    traffic crosses column groups).
    """
    rows, cols, _ = coo_triplets(m)
    nrows, ncols = m.shape
    vweights = np.zeros((ncols, pr), dtype=np.int64)
    np.add.at(vweights, (cols, row_stripe[rows]), 1)
    # Canonical triplets are row-major: ``cols`` already lists each
    # row-net's pins in order.
    counts = np.bincount(rows, minlength=nrows)
    xpins = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(counts, out=xpins[1:])
    hg = Hypergraph(
        xpins=xpins,
        pins=cols,
        vweights=vweights,
        ncosts=np.ones(nrows, dtype=np.int64),
    )
    return partition_kway(hg, pc, config)


def partition_checkerboard(
    a,
    nparts: int,
    config: PartitionConfig | None = None,
    shape: tuple[int, int] | None = None,
) -> SpMVPartition:
    """Checkerboard (2D-b) partition of ``a`` into ``nparts`` processors."""
    m = canonical_coo(a)
    nrows, ncols = m.shape
    config = config or PartitionConfig()
    pr, pc = shape if shape is not None else mesh_shape(nparts)
    if pr * pc != nparts:
        raise ConfigError(f"mesh {pr}x{pc} does not cover {nparts} processors")

    stripe_cfg = config
    row_stripe = partition_kway(column_net_model(m), pr, stripe_cfg)
    col_group = _multiconstraint_column_groups(m, row_stripe, pr, pc, config)

    nnz_part = row_stripe[m.row] * pc + col_group[m.col]
    # Vector ownership on the mesh: y_i at (stripe(i), group(i)) and
    # x_j at (stripe(j), group(j)) for square matrices, so each vector
    # entry sits on the processor owning the matching diagonal block.
    if nrows == ncols:
        y_part = row_stripe * pc + col_group
        x_part = y_part.copy()
    else:
        y_part = row_stripe * pc + (np.arange(nrows, dtype=np.int64) % pc)
        x_part = (np.arange(ncols, dtype=np.int64) % pr) * pc + col_group
    vectors = VectorPartition(x_part=x_part, y_part=y_part, nparts=nparts)
    return SpMVPartition(
        matrix=m,
        nnz_part=nnz_part,
        vectors=vectors,
        kind="2D-b",
        meta={"mesh": (pr, pc), "row_stripe": row_stripe, "col_group": col_group},
    )
