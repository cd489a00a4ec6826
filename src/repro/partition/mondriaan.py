"""Mondriaan-style orthogonal recursive bisection (Vastenhouw &
Bisseling 2005 — the paper's ref [18]).

A 2D nonzero partitioning obtained by recursively bisecting the current
nonzero set either *rowwise* (column-net model of the submatrix) or
*columnwise* (row-net model), whichever bisection cuts less; the split
direction is therefore data-driven per subproblem, giving the familiar
"Mondriaan painting" block structure.  Listed in the paper's related
work among the 2D methods that bound the number of messages per
processor; included here as an additional 2D baseline.
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph import PartitionConfig
from repro.hypergraph.bisect import multilevel_bisect
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.models import _majority_owner
from repro.kernels import stable_order
from repro.partition.types import SpMVPartition, VectorPartition
from repro.rng import as_generator, spawn
from repro.sparse.coo import canonical_coo

__all__ = ["partition_mondriaan"]


def _line_bisection(
    lines: np.ndarray,
    crosses: np.ndarray,
    frac0: float,
    epsilon: float,
    rng,
    config: PartitionConfig,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Bisect the distinct values of ``lines`` (rows or columns of the
    submatrix) minimizing cut nets over ``crosses`` (the other axis).

    Returns ``(side_of_nnz, cut, line_ids)``.
    """
    line_ids, line_idx = np.unique(lines, return_inverse=True)
    cross_ids, cross_idx = np.unique(crosses, return_inverse=True)
    nlines = line_ids.size
    vweights = np.bincount(line_idx, minlength=nlines).astype(np.int64)
    order = stable_order(cross_idx, cross_ids.size)
    counts = np.bincount(cross_idx, minlength=cross_ids.size)
    xpins = np.zeros(cross_ids.size + 1, dtype=np.int64)
    np.cumsum(counts, out=xpins[1:])
    # Deduplicate pins per net (a line may hit a cross-line repeatedly
    # only via duplicate nonzeros, which canonical COO rules out).
    hg = Hypergraph(
        xpins=xpins,
        pins=line_idx[order],
        vweights=vweights,
        ncosts=np.ones(cross_ids.size, dtype=np.int64),
    )
    total = hg.total_weight().astype(np.float64)
    t0 = total * frac0
    part, cut = multilevel_bisect(hg, (t0, total - t0), epsilon, rng, config)
    return part[line_idx].astype(np.int64), int(cut), line_ids


def partition_mondriaan(
    a, nparts: int, config: PartitionConfig | None = None
) -> SpMVPartition:
    """Mondriaan ORB partition of ``a`` into ``nparts``."""
    m = canonical_coo(a)
    config = config or PartitionConfig()
    rng = as_generator(config.seed)
    nnz_part = np.zeros(m.nnz, dtype=np.int64)
    depth = max(1, int(np.ceil(np.log2(max(nparts, 2)))))
    eps_level = (1.0 + config.epsilon) ** (1.0 / depth) - 1.0

    def recurse(idx: np.ndarray, k: int, offset: int, rng) -> None:
        if k == 1 or idx.size == 0:
            nnz_part[idx] = offset
            return
        k0 = (k + 1) // 2
        frac0 = k0 / k
        rows = m.row[idx]
        cols = m.col[idx]
        r_rng, c_rng, rec_rng0, rec_rng1 = spawn(rng, 4)
        side_r, cut_r, _ = _line_bisection(
            rows, cols, frac0, eps_level, r_rng, config
        )
        side_c, cut_c, _ = _line_bisection(
            cols, rows, frac0, eps_level, c_rng, config
        )
        side = side_r if cut_r <= cut_c else side_c
        left = idx[side == 0]
        right = idx[side == 1]
        recurse(left, k0, offset, rec_rng0)
        recurse(right, k - k0, offset + k0, rec_rng1)

    recurse(np.arange(m.nnz), nparts, 0, rng)

    x_part = _majority_owner(m.col, nnz_part, m.shape[1], nparts)
    y_part = _majority_owner(m.row, nnz_part, m.shape[0], nparts)
    vectors = VectorPartition(x_part=x_part, y_part=y_part, nparts=nparts)
    return SpMVPartition(
        matrix=m, nnz_part=nnz_part, vectors=vectors, kind="2D-orb"
    )
