"""Hypergraph models for sparse-matrix partitioning.

Each model maps a sparse matrix to a hypergraph whose connectivity-1
cut exactly equals the communication volume of the corresponding SpMV
partitioning scheme (Çatalyürek & Aykanat 1999; Uçar & Aykanat 2007):

- **column-net** — vertices are rows, nets are columns; a K-way vertex
  partition is a 1D rowwise partition, and with a consistent x-vector
  partition the connectivity-1 cut equals the expand volume.
- **row-net** — the transpose model, for 1D columnwise partitions.
- **fine-grain** — vertices are nonzeros, nets are rows *and* columns;
  the cut equals expand+fold volume of an arbitrary 2D partition.
- **medium-grain composite** (Pelt & Bisseling 2014) — the matrix is
  split ``A = Ar + Ac``; row-vertices carry the nonzeros of ``Ar``'s
  rows, column-vertices those of ``Ac``'s columns, and for square
  matrices row/column vertex ``i`` are amalgamated so the vector
  partition is symmetric.  Decoding a partition of this model yields an
  s2D partition (Section V of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import stable_order
from repro.sparse.coo import coo_triplets, nnz_per_col, nnz_per_row

__all__ = [
    "column_net_model",
    "row_net_model",
    "fine_grain_model",
    "FineGrainModel",
    "medium_grain_split",
    "medium_grain_model",
    "MediumGrainModel",
]


def _csr_like(group: np.ndarray, member: np.ndarray, ngroups: int) -> tuple[np.ndarray, np.ndarray]:
    """Group ``member`` values by ``group`` id into CSR arrays."""
    order = stable_order(group, ngroups)
    counts = np.bincount(group, minlength=ngroups)
    xpins = np.zeros(ngroups + 1, dtype=np.int64)
    np.cumsum(counts, out=xpins[1:])
    return xpins, member[order].astype(np.int64)


def column_net_model(a) -> Hypergraph:
    """Column-net hypergraph of ``a``: vertex per row, net per column.

    Vertex weight = nonzeros in the row (the row's multiply-add work);
    net cost = 1 (one x-word per extra part touching the column).
    Empty rows get weight 0; empty columns become empty nets (never cut).
    """
    rows, cols, _ = coo_triplets(a)
    m, n = a.shape
    xpins, pins = _csr_like(cols, rows, n)
    vweights = np.bincount(rows, minlength=m).astype(np.int64)
    return Hypergraph(
        xpins=xpins,
        pins=pins,
        vweights=vweights,
        ncosts=np.ones(n, dtype=np.int64),
    )


def row_net_model(a) -> Hypergraph:
    """Row-net hypergraph of ``a``: vertex per column, net per row."""
    rows, cols, _ = coo_triplets(a)
    m, n = a.shape
    xpins, pins = _csr_like(rows, cols, m)
    vweights = np.bincount(cols, minlength=n).astype(np.int64)
    return Hypergraph(
        xpins=xpins,
        pins=pins,
        vweights=vweights,
        ncosts=np.ones(m, dtype=np.int64),
    )


@dataclass(frozen=True)
class FineGrainModel:
    """Fine-grain hypergraph plus the decoding tables.

    ``hypergraph`` has one vertex per nonzero (weight 1) and one net per
    nonempty row and per nonempty column.  ``rows``/``cols`` give the
    matrix coordinates of vertex ``t``.
    """

    hypergraph: Hypergraph
    rows: np.ndarray
    cols: np.ndarray
    nrows: int
    ncols: int

    def decode(self, part: np.ndarray, nparts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode a vertex partition into ``(nnz_part, x_part, y_part)``.

        Vector entries follow the majority owner of their row/column
        nonzeros (consistent assignment: the owner already holds a
        nonzero needing the entry), which never increases the
        connectivity-1 volume bound.
        """
        part = np.asarray(part)
        y_part = _majority_owner(self.rows, part, self.nrows, nparts)
        x_part = _majority_owner(self.cols, part, self.ncols, nparts)
        return part.copy(), x_part, y_part


def _majority_owner(index: np.ndarray, part: np.ndarray, n: int, nparts: int) -> np.ndarray:
    """For each of ``n`` lines (rows or cols), the part holding the most
    of its nonzeros; lines with no nonzeros are dealt round-robin."""
    counts = np.zeros((n, nparts), dtype=np.int64)
    np.add.at(counts, (index, part), 1)
    owner = np.argmax(counts, axis=1).astype(np.int64)
    empty = counts.sum(axis=1) == 0
    if np.any(empty):
        owner[empty] = np.arange(int(empty.sum()), dtype=np.int64) % nparts
    return owner


def fine_grain_model(a) -> FineGrainModel:
    """Fine-grain (row-column-net) model of ``a`` (Çatalyürek & Aykanat
    2001): vertex per nonzero, nets per row and per column."""
    rows, cols, _ = coo_triplets(a)
    m, n = a.shape
    t = rows.size
    if t == 0:
        raise ModelError("cannot build a fine-grain model of an empty matrix")
    verts = np.arange(t, dtype=np.int64)
    # Row nets 0..m-1 then column nets m..m+n-1.
    xp_r, pins_r = _csr_like(rows, verts, m)
    xp_c, pins_c = _csr_like(cols, verts, n)
    xpins = np.concatenate([xp_r[:-1], xp_r[-1] + xp_c])
    pins = np.concatenate([pins_r, pins_c])
    hg = Hypergraph(
        xpins=xpins,
        pins=pins,
        vweights=np.ones(t, dtype=np.int64),
        ncosts=np.ones(m + n, dtype=np.int64),
    )
    return FineGrainModel(hypergraph=hg, rows=rows, cols=cols, nrows=m, ncols=n)


def medium_grain_split(a) -> np.ndarray:
    """Pelt–Bisseling split ``A = Ar + Ac``.

    Returns a boolean mask over the canonical nonzeros: ``True`` → the
    nonzero goes to ``Ar`` (rowwise side), ``False`` → ``Ac``
    (columnwise side).  A nonzero joins the side on which it has the
    *fewer*-populated line: if its column is shorter than its row it is
    grouped with the column, so the dense line (the expensive one to
    split) is the one that gets distributed.
    """
    rows, cols, _ = coo_triplets(a)
    pr = nnz_per_row(a)
    pc = nnz_per_col(a)
    # Ties go to the row side, matching the "rowwise by default" bias of
    # the paper's vector-partition step.
    return pr[rows] <= pc[cols]


@dataclass(frozen=True)
class MediumGrainModel:
    """Composite hypergraph of the medium-grain method, plus decoders.

    For an ``m × n`` matrix the model has ``m`` row-vertices and ``n``
    column-vertices; for square matrices row-vertex ``i`` and
    column-vertex ``i`` are amalgamated (one vertex), which makes the
    decoded vector partition symmetric — the property the paper points
    out the composite-model formulation guarantees.
    """

    hypergraph: Hypergraph
    rows: np.ndarray
    cols: np.ndarray
    to_row: np.ndarray
    nrows: int
    ncols: int
    amalgamated: bool

    def row_vertex(self, i) -> np.ndarray:
        """Vertex id(s) of row ``i``."""
        return np.asarray(i, dtype=np.int64)

    def col_vertex(self, j) -> np.ndarray:
        """Vertex id(s) of column ``j``."""
        j = np.asarray(j, dtype=np.int64)
        return j if self.amalgamated else j + self.nrows

    def decode(self, part: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode a vertex partition into ``(nnz_part, x_part, y_part)``.

        Nonzeros of ``Ar`` follow their row-vertex; nonzeros of ``Ac``
        follow their column-vertex — by construction an s2D partition.
        """
        part = np.asarray(part, dtype=np.int64)
        y_part = part[self.row_vertex(np.arange(self.nrows))]
        x_part = part[self.col_vertex(np.arange(self.ncols))]
        nnz_part = np.where(self.to_row, y_part[self.rows], x_part[self.cols])
        return nnz_part, x_part, y_part


def medium_grain_model(a, to_row: np.ndarray | None = None) -> MediumGrainModel:
    """Composite hypergraph for the medium-grain method.

    Nets: one per column ``j`` of ``Ar`` — pins are the row-vertices of
    ``Ar``-nonzeros in that column plus column-vertex ``j`` itself (it
    holds ``x_j``); one per row ``i`` of ``Ac`` — pins are the
    column-vertices of ``Ac``-nonzeros in that row plus row-vertex
    ``i``.  Cutting a net by λ parts costs λ−1 words, exactly the s2D
    volume of eq. (3).
    """
    rows, cols, _ = coo_triplets(a)
    m, n = a.shape
    if to_row is None:
        to_row = medium_grain_split(a)
    to_row = np.asarray(to_row, dtype=bool)
    if to_row.size != rows.size:
        raise ModelError("to_row mask must align with the canonical nonzeros")

    amalgamated = m == n
    nvert = m if amalgamated else m + n
    col_vertex_base = 0 if amalgamated else m

    vweights = np.zeros(nvert, dtype=np.int64)
    np.add.at(vweights, rows[to_row], 1)
    np.add.at(vweights, cols[~to_row] + col_vertex_base, 1)

    net_lists: list[np.ndarray] = []
    # Column nets over Ar.
    r_rows, r_cols = rows[to_row], cols[to_row]
    order = stable_order(r_cols, n)
    r_rows, r_cols = r_rows[order], r_cols[order]
    uniq_cols, starts = np.unique(r_cols, return_index=True)
    ends = np.append(starts[1:], r_cols.size)
    for j, s, e in zip(uniq_cols, starts, ends):
        pins = np.unique(r_rows[s:e])
        pins = np.union1d(pins, [j + col_vertex_base])
        net_lists.append(pins)
    # Row nets over Ac.
    c_rows, c_cols = rows[~to_row], cols[~to_row]
    order = stable_order(c_rows, m)
    c_rows, c_cols = c_rows[order], c_cols[order]
    uniq_rows, starts = np.unique(c_rows, return_index=True)
    ends = np.append(starts[1:], c_rows.size)
    for i, s, e in zip(uniq_rows, starts, ends):
        pins = np.unique(c_cols[s:e] + col_vertex_base)
        pins = np.union1d(pins, [i])
        net_lists.append(pins)

    xpins = np.zeros(len(net_lists) + 1, dtype=np.int64)
    for e, lst in enumerate(net_lists):
        xpins[e + 1] = xpins[e] + lst.size
    pins = (
        np.concatenate(net_lists)
        if net_lists
        else np.empty(0, dtype=np.int64)
    )
    hg = Hypergraph(
        xpins=xpins,
        pins=pins,
        vweights=vweights,
        ncosts=np.ones(len(net_lists), dtype=np.int64),
    )
    return MediumGrainModel(
        hypergraph=hg,
        rows=rows,
        cols=cols,
        to_row=to_row,
        nrows=m,
        ncols=n,
        amalgamated=amalgamated,
    )
