"""s2D nonzero partitioning (Section IV of the paper).

Given a K-way input/output vector partition, every off-diagonal block
``A_{ℓk}`` must be split into a row-side part ``A^{(ℓ)}_{ℓk}`` (kept
with the y owner) and a column-side part ``A^{(k)}_{ℓk}`` (kept with
the x owner).  Two methods:

:func:`s2d_optimal`
    Per-block optimum.  The coarse DM decomposition of the block yields
    the horizontal sub-block ``H``; assigning exactly ``H`` to the
    column side achieves the minimum possible volume ``λ_{k→ℓ} =
    n̂(A_{ℓk}) − n̂(H) + m̂(H)`` (the DM minimum-cover bound), summed
    independently over blocks → globally volume-optimal for the given
    vector partition.

:func:`s2d_heuristic`
    Algorithm 1.  Starts from pure rowwise (alternative A1 everywhere)
    and flips blocks to their DM split (alternative A2) in decreasing
    order of the volume saving ``λ⁻ = n̂(H) − m̂(H)``, but only when
    the receiving processor's load stays under ``max(W̃, W_lim)`` —
    the bi-objective trade-off between volume and balance (the exact
    choice problem contains Knapsack, hence the greedy).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.dm import BlockDMTable, batched_block_dm
from repro.errors import PartitionError
from repro.native import get_kernels, resolve_backend
from repro.native import ops as native_ops
from repro.partition.types import SpMVPartition, VectorPartition
from repro.partition.vector import vector_partition_from_rows
from repro.sparse.blocks import BlockStructure
from repro.sparse.coo import canonical_coo

__all__ = [
    "s2d_optimal",
    "s2d_heuristic",
    "s2d_rowwise_baseline",
    "choices_from_block_dm",
]


def _as_vectors(a, x_part, y_part, nparts: int) -> tuple:
    m = canonical_coo(a)
    if isinstance(x_part, VectorPartition):
        return m, x_part
    if x_part is None:
        vectors = vector_partition_from_rows(m, np.asarray(y_part), nparts)
    else:
        vectors = VectorPartition(
            x_part=np.asarray(x_part), y_part=np.asarray(y_part), nparts=nparts
        )
    return m, vectors


def choices_from_block_dm(dm: BlockDMTable) -> BlockDMTable:
    """Algorithm 1's per-block inputs from batched DM results.

    The :class:`~repro.dm.BlockDMTable` already holds them as flat
    arrays (row and column part, ``λ⁻``, ``|H|`` and the ``H``
    nonzeros) and is read-only, so every construction shares the
    engine's memoized table as is: nothing is copied, and no
    construction can change what the next one sees.
    """
    if not isinstance(dm, BlockDMTable):
        raise TypeError(f"expected a BlockDMTable, got {type(dm).__name__}")
    return dm


def _assign_h(nnz_part: np.ndarray, choices: BlockDMTable, chosen: np.ndarray) -> None:
    """Give the ``H`` nonzeros of every chosen block to its column part.

    The ``H`` sets of different blocks are disjoint, so one scatter
    does it in any order."""
    flipped = np.repeat(chosen, choices.h_size)
    owners = np.repeat(choices.col_part[chosen], choices.h_size[chosen])
    nnz_part[choices.h_nnz[flipped]] = owners


def _flip_numpy(order, row_part, col_part, h_size, loads, w_lim, max_rounds):
    """The reference flip rounds of :func:`s2d_heuristic` (and the
    fallback without a compiler): the loop of ``repro_s2d_flip``, over
    Python ints.  ``loads`` is updated in place; returns ``(chosen,
    rounds)``."""
    rows, cols, sizes = row_part.tolist(), col_part.tolist(), h_size.tolist()
    load = loads.tolist()
    chosen = [False] * len(sizes)
    w_max = max(load)
    rounds = 0
    changed = True
    while changed and rounds < max_rounds:
        changed = False
        rounds += 1
        for b in order.tolist():
            h = sizes[b]
            if chosen[b] or h == 0:
                continue
            if float(load[cols[b]] + h) <= max(float(w_max), w_lim):
                chosen[b] = True
                load[cols[b]] += h
                load[rows[b]] -= h
                w_max = max(load)
                changed = True
    loads[:] = load
    return np.array(chosen, dtype=bool), rounds


def s2d_rowwise_baseline(a, x_part=None, y_part=None, nparts: int = 1) -> SpMVPartition:
    """The A1-everywhere partition: identical to 1D rowwise, but typed
    as s2D (it is trivially admissible).  Used as the heuristic's start
    state and as a reference in tests."""
    m, vectors = _as_vectors(a, x_part, y_part, nparts)
    nnz_part = vectors.y_part[m.row]
    return SpMVPartition(matrix=m, nnz_part=nnz_part, vectors=vectors, kind="s2D")


def s2d_optimal(
    a,
    x_part=None,
    y_part=None,
    nparts: int = 1,
    *,
    block_structure: BlockStructure | None = None,
    choices: BlockDMTable | None = None,
) -> SpMVPartition:
    """Volume-optimal s2D partition for the given vector partition.

    Every off-diagonal block takes alternative (A2): its horizontal
    sub-block goes to the column owner, the rest stays with the row
    owner.  Load balance is *not* considered (Section IV-A).

    ``block_structure`` / ``choices`` let a caller holding memoized
    intermediates (the :class:`repro.engine.PartitionEngine`) skip the
    block analytics; both must derive from the same vector partition.
    """
    m, vectors = _as_vectors(a, x_part, y_part, nparts)
    if choices is None:
        choices = batched_block_dm(
            block_structure
            or BlockStructure(m.row, m.col, vectors.x_part, vectors.y_part, vectors.nparts)
        )
    chosen = np.ones(len(choices), dtype=bool)
    nnz_part = vectors.y_part[m.row].copy()
    _assign_h(nnz_part, choices, chosen)
    out = SpMVPartition(
        matrix=m,
        nnz_part=nnz_part,
        vectors=vectors,
        kind="s2D",
        meta={"method": "optimal", "choices": choices, "chosen": chosen},
    )
    out.validate_s2d()
    return out


def s2d_heuristic(
    a,
    x_part=None,
    y_part=None,
    nparts: int = 1,
    w_lim: float | None = None,
    epsilon: float = 0.03,
    max_rounds: int = 64,
    *,
    block_structure: BlockStructure | None = None,
    choices: BlockDMTable | None = None,
) -> SpMVPartition:
    """Algorithm 1: bi-objective s2D partitioning.

    ``w_lim`` caps the maximum processor load; when omitted it defaults
    to ``(1 + ε)`` times the average load (the paper runs PaToH with a
    3% tolerance, so the same ε keeps the comparison like-for-like).
    A flip is accepted while the receiver stays under
    ``max(W̃, w_lim)`` — using the *current* maximum W̃ lets the
    algorithm proceed even when the rowwise start already violates
    ``w_lim``, exactly as the implementation note in Section IV-B says.

    Blocks are visited in decreasing order of ``λ⁻``, ties by larger
    ``|H|`` first (more balance relief), then by block key.  The rounds
    run in C (``repro_s2d_flip``) when
    :func:`repro.native.resolve_backend` picks the native backend, and
    in the NumPy reference loop otherwise; both flip the same blocks.

    ``block_structure`` / ``choices`` inject memoized intermediates
    (see :func:`s2d_optimal`).  ``meta["choices"]`` is the DM table and
    ``meta["chosen"]`` the mask of blocks that took alternative A2.
    """
    m, vectors = _as_vectors(a, x_part, y_part, nparts)
    k = vectors.nparts
    bs = block_structure or BlockStructure(
        m.row, m.col, vectors.x_part, vectors.y_part, k
    )
    if choices is None:
        choices = batched_block_dm(bs)
    if w_lim is None:
        w_lim = (1.0 + epsilon) * (m.nnz / k)

    loads = bs.rowwise_loads().astype(np.int64)
    order = np.lexsort((-choices.h_size, -choices.lambda_minus))
    flat = dict(
        order=order, row_part=choices.row_part, col_part=choices.col_part,
        h_size=choices.h_size, loads=loads, w_lim=float(w_lim), max_rounds=max_rounds,
    )
    if resolve_backend() == "native":
        chosen, rounds = native_ops.s2d_flip(get_kernels(), **flat)
    else:
        chosen, rounds = _flip_numpy(**flat)
    obs.add("s2d.flip_rounds", rounds)
    nnz_part = vectors.y_part[m.row].copy()
    _assign_h(nnz_part, choices, chosen)

    out = SpMVPartition(
        matrix=m,
        nnz_part=nnz_part,
        vectors=vectors,
        kind="s2D",
        meta={
            "method": "heuristic",
            "w_lim": float(w_lim),
            "rounds": rounds,
            "choices": choices,
            "chosen": chosen,
        },
    )
    out.validate_s2d()
    expected = loads
    actual = out.loads()
    if not np.array_equal(expected, actual):
        raise PartitionError("internal load bookkeeping diverged from the partition")
    return out
