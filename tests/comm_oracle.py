"""The analytic communication formulas, kept as an oracle for the ledger.

The derivations in :mod:`repro.simulate` count every word and message
of an SpMV once, in the :class:`~repro.simulate.messages.Ledger` they
build.  This module counts them a second way, straight from the
paper's formulas, with plain NumPy grouping that shares no code with
the derivations:

- single phase (eq. 3): ``λ_{k→ℓ} = n̂(A^{(ℓ)}_{ℓk}) + m̂(A^{(k)}_{ℓk})``
  — one word per nonempty column of block ``(ℓ, k)``'s row-side
  nonzeros (the x entries ``P_ℓ`` needs) and one per nonempty row of
  its column-side nonzeros (the partials ``P_k`` computed for ``P_ℓ``);
- two phase: ``x_j`` travels from its owner to every other holder of a
  column-``j`` nonzero (expand), and each holder's combined partial
  for ``y_i`` travels to the row's owner (fold);
- routed (s2D-b, Section VI-B): the single-phase items take two hops
  over the ``Pr × Pc`` mesh, ``k → (r_k, c_ℓ) → ℓ``; an item crosses
  each hop once per (sender, receiver, line), so x copies bound for
  one mesh column and partials of one ``y_i`` meeting at an
  intermediate are combined;
- 1D rowwise over a block structure: ``Σ_{ℓ≠k} n̂(A_{ℓk})``.

Test code only; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.partition.checkerboard import mesh_shape


def _words(src, dst, line) -> dict[tuple[int, int], int]:
    """Words per ``(src, dst)`` pair: distinct lines moving, ``src != dst``."""
    move = src != dst
    triples = np.unique(np.stack((src[move], dst[move], line[move])), axis=1)
    pairs, counts = np.unique(triples[:2], axis=1, return_counts=True)
    return {(int(s), int(d)): int(c) for (s, d), c in zip(pairs.T, counts)}


def _merge(a: dict, b: dict) -> dict[tuple[int, int], int]:
    """One packet per pair: the words of two item kinds added up."""
    return {key: a.get(key, 0) + b.get(key, 0) for key in a.keys() | b.keys()}


def per_processor(nparts: int, words: dict) -> tuple[np.ndarray, ...]:
    """``(sent_words, recv_words, sent_msgs, recv_msgs)`` per processor."""
    out = tuple(np.zeros(nparts, dtype=np.int64) for _ in range(4))
    for (src, dst), w in words.items():
        out[0][src] += w
        out[1][dst] += w
        out[2][src] += 1
        out[3][dst] += 1
    return out


def _sides(p):
    """Per nonzero: y-owner, x-owner, and the row-side / column-side masks."""
    m = p.matrix
    rp = p.vectors.y_part[m.row]
    cp = p.vectors.x_part[m.col]
    on_row = p.nnz_part == rp
    on_col = p.nnz_part == cp
    assert np.all(on_row | on_col), "eq. 3 needs an s2D-admissible partition"
    return rp, cp, on_row, on_col & ~on_row


def single_phase_words(p) -> dict[tuple[int, int], int]:
    """``λ_{k→ℓ}`` for every communicating pair ``(k, ℓ)`` (eq. 3)."""
    m = p.matrix
    rp, cp, x_side, y_side = _sides(p)
    # x words: x_j from its owner cp to the row side rp; partial-y
    # words: ȳ_i from the producer cp to the y-owner rp.
    return _merge(
        _words(cp[x_side], rp[x_side], m.col[x_side]),
        _words(cp[y_side], rp[y_side], m.row[y_side]),
    )


def rowwise_volume(bs) -> int:
    """Total volume of the pure 1D rowwise partition over the
    :class:`~repro.sparse.blocks.BlockStructure` ``bs``.

    With every off-diagonal block kept on its row side (alternative A1
    for all blocks), ``P_k`` sends ``x_j`` to ``P_ℓ`` for every nonempty
    column of ``A_{ℓk}``: ``Σ_{ℓ≠k} n̂(A_{ℓk})``.
    """
    st = bs.block_stats()
    return int(st.nhat[st.offdiagonal_mask].sum())


def two_phase_words(p) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """:func:`per_processor` arrays of the expand and the fold phase."""
    m = p.matrix
    holder = p.nnz_part
    expand = _words(p.vectors.x_part[m.col], holder, m.col)
    fold = _words(holder, p.vectors.y_part[m.row], m.row)
    return per_processor(p.nparts, expand), per_processor(p.nparts, fold)


def routed_words(p) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """:func:`per_processor` arrays of the row hop and the column hop."""
    m = p.matrix
    pr, pc = p.meta.get("mesh", mesh_shape(p.nparts))
    assert pr * pc == p.nparts, f"mesh {pr}x{pc} does not cover {p.nparts}"
    rp, cp, x_side, y_side = _sides(p)
    row, col = {}, {}
    for side, line in ((x_side, m.col), (y_side, m.row)):
        src, dst, line = cp[side], rp[side], line[side]
        via = (src // pc) * pc + dst % pc  # the intermediate (r_src, c_dst)
        row = _merge(row, _words(src, via, line))
        col = _merge(col, _words(via, dst, line))
    return per_processor(p.nparts, row), per_processor(p.nparts, col)
