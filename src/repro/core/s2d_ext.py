"""Extensions of Algorithm 1 along the paper's future-work axis.

The conclusion of the paper sketches "more sophisticated heuristics
that also take square and vertical blocks of off-diagonal blocks into
account ... to mitigate the dependency on the vector partition".  This
module implements that sketch:

For an off-diagonal block ``A_{ℓk}`` there is a third admissible
alternative beyond the paper's (A1)/(A2):

- (A3) assign the *entire* block to the column owner ``P_k``; the
  volume becomes ``λ = m̂(A_{ℓk})`` (every row sends one partial) and
  the whole block's work moves off the row owner.

(A2) is volume-optimal by the DM bound, so (A3) never beats it on
volume — but it moves ``|A_{ℓk}|`` nonzeros instead of ``|H_{ℓk}|``,
which is exactly the lever needed when the row owner is overloaded
(e.g. it owns a dense row the vector partition saddled it with).

:func:`s2d_heuristic_balanced` therefore runs Algorithm 1 first and
then performs *balance-repair passes*: while some processor exceeds the
load cap, it moves whole blocks (A3) away from the most loaded row
owners, choosing the move with the smallest volume penalty per unit of
load relief.
"""

from __future__ import annotations

import numpy as np

from repro.core.s2d import s2d_heuristic
from repro.dm import BlockDMTable
from repro.partition.types import SpMVPartition
from repro.sparse.blocks import BlockStructure

__all__ = ["s2d_heuristic_balanced"]


def s2d_heuristic_balanced(
    a,
    x_part=None,
    y_part=None,
    nparts: int = 1,
    w_lim: float | None = None,
    epsilon: float = 0.03,
    max_moves: int = 10_000,
    *,
    block_structure: BlockStructure | None = None,
    choices: BlockDMTable | None = None,
) -> SpMVPartition:
    """Algorithm 1 plus (A3) balance-repair moves.

    Parameters match :func:`repro.core.s2d.s2d_heuristic`; the result
    is still s2D-admissible and its volume is still at most the 1D
    rowwise volume *unless* repair moves were needed, in which case
    volume is knowingly traded for balance (each trade is recorded in
    ``meta['repair_moves']``).  ``block_structure`` / ``choices``
    inject memoized intermediates for the same vector partition
    (engine hot path).
    """
    base = s2d_heuristic(
        a,
        x_part=x_part,
        y_part=y_part,
        nparts=nparts,
        w_lim=w_lim,
        epsilon=epsilon,
        block_structure=block_structure,
        choices=choices,
    )
    m = base.matrix
    k = base.nparts
    vectors = base.vectors
    if w_lim is None:
        w_lim = (1.0 + epsilon) * (m.nnz / k)

    nnz_part = base.nnz_part.copy()
    loads = base.loads().astype(np.int64)
    bs = block_structure or BlockStructure(
        m.row, m.col, vectors.x_part, vectors.y_part, k
    )

    # Candidate (A3) moves: for each off-diagonal block, the nonzeros
    # still sitting on the row side after Algorithm 1.
    candidates: dict[int, list[tuple[int, np.ndarray]]] = {}
    for ell, kk in bs.nonempty_offdiagonal_blocks():
        idx = bs.block_nnz_indices(ell, kk)
        rowside = idx[nnz_part[idx] == ell]
        if rowside.size:
            candidates.setdefault(ell, []).append((kk, rowside))

    repair_moves: list[dict] = []
    moves = 0
    while moves < max_moves:
        over = int(np.argmax(loads))
        if loads[over] <= w_lim:
            break
        blocks = candidates.get(over, [])
        # Pick the move that relieves the most load per extra word:
        # moving the block adds one partial word per distinct row and
        # removes one x word per column that becomes empty on the row
        # side -- conservatively score by rows/|block| (bigger, sparser
        # blocks are better levers).
        best_i = -1
        best_score = -np.inf
        for i, (dst, idx) in enumerate(blocks):
            if idx.size == 0 or loads[dst] + idx.size > loads[over]:
                continue  # move would just shift the hot spot
            penalty = np.unique(m.row[idx]).size  # new partial words
            score = idx.size / (penalty + 1.0)
            if score > best_score:
                best_score = score
                best_i = i
        if best_i < 0:
            break  # no admissible repair move
        dst, idx = blocks.pop(best_i)
        nnz_part[idx] = dst
        loads[over] -= idx.size
        loads[dst] += idx.size
        repair_moves.append(
            {"from": over, "to": dst, "nnz": int(idx.size)}
        )
        moves += 1

    out = SpMVPartition(
        matrix=m,
        nnz_part=nnz_part,
        vectors=vectors,
        kind="s2D",
        meta={
            **base.meta,
            "method": "heuristic+A3",
            "repair_moves": repair_moves,
        },
    )
    out.validate_s2d()
    return out
