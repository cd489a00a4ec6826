"""Matrix partitioning schemes.

The baseline schemes of the paper's experimental section:

- :mod:`repro.partition.types` — the partition dataclasses shared by
  every scheme;
- :mod:`repro.partition.vector` — vector (x/y) partition strategies;
- :mod:`repro.partition.oned` — 1D rowwise / columnwise partitioning
  via the column-net / row-net hypergraph models;
- :mod:`repro.partition.finegrain` — 2D fine-grain (nonzero-based)
  partitioning;
- :mod:`repro.partition.checkerboard` — 2D-b Cartesian (checkerboard)
  partitioning with multi-constraint column partitioning;
- :mod:`repro.partition.boman` — 1D-b, the Boman-style post-processing
  of a 1D partition onto a virtual processor mesh.

The s2D schemes (the paper's contribution) live in :mod:`repro.core`.
Every scheme here is also registered with the unified
:class:`repro.engine.PartitionEngine` pipeline, which memoizes the
intermediates schemes share; prefer ``PartitionEngine(a).plan(name, k)``
when running several schemes on one matrix.
"""

from repro.partition.boman import partition_1d_boman
from repro.partition.checkerboard import mesh_shape, partition_checkerboard
from repro.partition.finegrain import partition_2d_finegrain
from repro.partition.mondriaan import partition_mondriaan
from repro.partition.oned import (
    partition_1d_block_rows,
    partition_1d_columnwise,
    partition_1d_random_rows,
    partition_1d_rowwise,
)
from repro.partition.types import SpMVPartition, VectorPartition
from repro.partition.vector import conformal_x_partition


def plan(a, method: str, nparts: int, **kwargs) -> "SpMVPartition":
    """One-shot engine plan: build ``method`` on ``a`` at ``nparts``.

    Convenience for scripts that want a single partition; when running
    several methods on one matrix, construct a
    :class:`repro.engine.PartitionEngine` directly so the shared
    intermediates are reused.  (Imported lazily to keep the package
    import graph acyclic.)
    """
    from repro.engine import PartitionEngine

    return PartitionEngine(a).plan(method, nparts, **kwargs).partition


__all__ = [
    "plan",
    "SpMVPartition",
    "VectorPartition",
    "partition_1d_rowwise",
    "partition_1d_columnwise",
    "partition_1d_block_rows",
    "partition_1d_random_rows",
    "partition_2d_finegrain",
    "partition_mondriaan",
    "partition_checkerboard",
    "partition_1d_boman",
    "mesh_shape",
    "conformal_x_partition",
]
