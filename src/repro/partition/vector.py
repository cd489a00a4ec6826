"""Vector-partition strategies.

The s2D method takes an input- and output-vector partition as *given*
(Problem 1) and the paper derives them from a 1D rowwise partition:
``y`` follows the rows, and ``x`` is chosen conformally.  For square
matrices the conformal choice is the symmetric one (``x_j`` with row
``j``); for rectangular matrices each ``x_j`` goes to the part that
holds the most nonzeros of column ``j`` — a consumer of ``x_j`` —
falling back to the least-loaded part for empty columns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.partition.types import VectorPartition
from repro.sparse.coo import coo_triplets

__all__ = ["conformal_x_partition", "vector_partition_from_rows"]


def conformal_x_partition(a, y_part: np.ndarray, nparts: int) -> np.ndarray:
    """Choose an x partition conformal with a row (y) partition.

    Each column's x-entry goes to the y-part owning the plurality of the
    column's nonzeros; ties break toward the lower part id (stable), and
    empty columns are dealt round-robin by column index.
    """
    rows, cols, _ = coo_triplets(a)
    m, n = a.shape
    y_part = np.asarray(y_part, dtype=np.int64)
    if y_part.size != m:
        raise PartitionError("y_part length must equal the number of rows")
    counts = np.zeros((n, nparts), dtype=np.int64)
    np.add.at(counts, (cols, y_part[rows]), 1)
    x_part = np.argmax(counts, axis=1).astype(np.int64)
    empty = counts.sum(axis=1) == 0
    x_part[empty] = np.flatnonzero(empty) % nparts
    return x_part


def vector_partition_from_rows(a, y_part: np.ndarray, nparts: int) -> VectorPartition:
    """Vector partition induced by a row partition.

    Square matrices get the symmetric partition (the paper's composite-
    model observation: symmetric vector partitions are desirable);
    rectangular ones get the conformal plurality assignment.
    """
    m, n = a.shape
    y_part = np.asarray(y_part, dtype=np.int64)
    if m == n:
        return VectorPartition(x_part=y_part.copy(), y_part=y_part, nparts=nparts)
    return VectorPartition(
        x_part=conformal_x_partition(a, y_part, nparts),
        y_part=y_part,
        nparts=nparts,
    )
