"""NumPy oracles for Algorithm 1's two native kernels.

``repro_block_dm`` (:func:`repro.dm.batch.batched_block_dm`) labels
every block of a DM batch horizontal / square / vertical, and
``repro_s2d_flip`` (:func:`repro.core.s2d.s2d_heuristic`) runs the
greedy flip rounds.  Both are the only implementation the package
ships.  This module computes the same results a second way, in plain
NumPy and Python that shares no code with the C:

- :func:`hopcroft_karp` — maximum bipartite matching, and
  :func:`coarse_labels` — the alternating-path reachability labels
  from it; :func:`coarse_dm` chains them for one ``(rows, cols)``
  pattern, and :func:`block_dm` over the shared buffers of a batch, with
  :func:`repro.native.ops.block_dm`'s arguments and results;
- :func:`s2d_flip` — the flip rounds over Python ints, with
  :func:`repro.native.ops.s2d_flip`'s arguments and results;
- :func:`numpy_kernels` — a context in which ``batched_block_dm`` and
  ``s2d_heuristic`` call the two functions above instead of the C.

The kernel finds its own maximum matching, not Hopcroft–Karp's.  The
comparison is still exact: the labels and the matching size are the
same for every maximum matching (Pothen & Fan, "Computing the block
triangular form of a sparse matrix", ACM TOMS 1990).

Test code only; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import contextlib
import types
from collections import deque

import numpy as np

from repro.dm.decomposition import HORIZONTAL, SQUARE, VERTICAL, CoarseDM
from repro.kernels import stable_order

__all__ = [
    "HORIZONTAL",
    "SQUARE",
    "VERTICAL",
    "bipartite_adjacency",
    "block_dm",
    "coarse_dm",
    "coarse_labels",
    "hopcroft_karp",
    "is_matching",
    "matching_size",
    "minimum_cover_size",
    "numpy_kernels",
    "s2d_flip",
]

# ----------------------------------------------------------------------
# Hopcroft–Karp maximum bipartite matching
# ----------------------------------------------------------------------

_INF = np.iinfo(np.int64).max


def bipartite_adjacency(rows: np.ndarray, cols: np.ndarray, nrows: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency (indptr, col-indices) of the bipartite graph of a
    sparse pattern given as parallel (row, col) arrays.

    Duplicate edges are tolerated (they cannot change a matching).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    order = stable_order(rows, nrows)
    sorted_rows = rows[order]
    sorted_cols = cols[order]
    counts = np.bincount(sorted_rows, minlength=nrows)
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, sorted_cols


def hopcroft_karp(
    indptr: np.ndarray, adj: np.ndarray, nrows: int, ncols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Maximum matching of the bipartite graph ``(rows, cols, adj)``.

    Returns ``(match_row, match_col)``: ``match_row[i]`` is the column
    matched to row ``i`` (or −1), and symmetrically for columns.
    """
    match_row = np.full(nrows, -1, dtype=np.int64)
    match_col = np.full(ncols, -1, dtype=np.int64)
    dist = np.empty(nrows, dtype=np.int64)

    # Greedy initialization: cheap and removes most augmentation work.
    # Vectorized handshake: each round, every free column elects its
    # first incident edge and every free row elects its first edge to a
    # still-free column; mutually agreeing (row, column) pairs match.
    # Any valid matching works here — Hopcroft–Karp augments the rest.
    # Rounds are capped: on dense blocks contention can shrink progress
    # to one pair per O(E) round, and the later rounds' stragglers are
    # exactly what the augmentation phases handle well anyway.
    nedges = int(adj.size)
    if nedges:
        edge_row = np.repeat(
            np.arange(nrows, dtype=np.int64), np.diff(indptr).astype(np.int64)
        )
        edge_ids = np.arange(nedges, dtype=np.int64)
        for _round in range(4):
            live = (match_row[edge_row] == -1) & (match_col[adj] == -1)
            eids = edge_ids[live]
            if eids.size == 0:
                break
            # First live edge per column (first occurrence per unmatched
            # column), then first winning edge per row.
            col_first = np.full(ncols, nedges, dtype=np.int64)
            np.minimum.at(col_first, adj[eids], eids)
            winners = eids[col_first[adj[eids]] == eids]
            row_first = np.full(nrows, nedges, dtype=np.int64)
            np.minimum.at(row_first, edge_row[winners], winners)
            agreed = winners[row_first[edge_row[winners]] == winners]
            if agreed.size == 0:
                break
            match_row[edge_row[agreed]] = adj[agreed]
            match_col[adj[agreed]] = edge_row[agreed]

    def bfs() -> bool:
        """Layered BFS from free rows; True if a free column is reachable."""
        queue = deque()
        for u in range(nrows):
            if match_row[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for p in range(indptr[u], indptr[u + 1]):
                w = match_col[adj[p]]
                if w == -1:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(root: int) -> bool:
        """Iterative DFS along the layered graph, augmenting if possible.

        Frame ``i`` explores left vertex ``frame_u[i]``; ``frame_v[i]``
        is the right vertex currently being tried from it.  When a free
        right vertex is reached, re-matching every ``(frame_u[i],
        frame_v[i])`` pair flips the whole augmenting path at once.
        """
        frame_u = [root]
        frame_p = [int(indptr[root])]
        frame_v = [-1]
        while frame_u:
            u = frame_u[-1]
            p = frame_p[-1]
            descended = False
            while p < indptr[u + 1]:
                v = int(adj[p])
                p += 1
                w = int(match_col[v])
                if w == -1:
                    frame_v[-1] = v
                    for uu, vv in zip(frame_u, frame_v):
                        match_row[uu] = vv
                        match_col[vv] = uu
                    return True
                if dist[w] == dist[u] + 1:
                    frame_p[-1] = p
                    frame_v[-1] = v
                    frame_u.append(w)
                    frame_p.append(int(indptr[w]))
                    frame_v.append(-1)
                    descended = True
                    break
            if not descended:
                dist[u] = _INF  # dead end: prune for the rest of this phase
                frame_u.pop()
                frame_p.pop()
                frame_v.pop()
        return False

    while bfs():
        for u in range(nrows):
            if match_row[u] == -1:
                dfs(u)
    return match_row, match_col


def is_matching(match_row: np.ndarray, match_col: np.ndarray) -> bool:
    """Check mutual consistency of the two matching arrays."""
    for u, v in enumerate(match_row):
        if v != -1 and match_col[v] != u:
            return False
    for v, u in enumerate(match_col):
        if u != -1 and match_row[u] != v:
            return False
    return True


def matching_size(match_row: np.ndarray) -> int:
    """Cardinality of the matching."""
    return int(np.count_nonzero(np.asarray(match_row) != -1))

# ----------------------------------------------------------------------
# Coarse DM labels
# ----------------------------------------------------------------------


def coarse_labels(
    indptr: np.ndarray,
    adj: np.ndarray,
    cindptr: np.ndarray,
    cadj: np.ndarray,
    match_row: np.ndarray,
    match_col: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """H/S/V labels from a maximum matching and both adjacency views.

    The alternating-path reachability core shared by the per-block
    :func:`coarse_dm` and the batch oracle :func:`block_dm` (which
    feeds it views over a batch's shared pre-sorted buffers).  Labels
    are canonical: any maximum matching yields the same result.
    """
    nr = match_row.size
    nc = match_col.size
    row_label = np.full(nr, SQUARE, dtype=np.int8)
    col_label = np.full(nc, SQUARE, dtype=np.int8)

    # Horizontal: alternating-path reachability from unmatched columns.
    # column --(any edge)--> row --(matching edge)--> column ...
    col_seen = np.zeros(nc, dtype=bool)
    row_seen = np.zeros(nr, dtype=bool)
    queue = deque(int(v) for v in np.flatnonzero(match_col == -1))
    for v in queue:
        col_seen[v] = True
    while queue:
        v = queue.popleft()
        for p in range(cindptr[v], cindptr[v + 1]):
            u = int(cadj[p])
            if row_seen[u]:
                continue
            row_seen[u] = True
            w = int(match_row[u])
            # u must be matched: otherwise column v's alternating path to u
            # would be augmenting, contradicting matching maximality.
            if w != -1 and not col_seen[w]:
                col_seen[w] = True
                queue.append(w)
    row_label[row_seen] = HORIZONTAL
    col_label[col_seen] = HORIZONTAL

    # Vertical: alternating-path reachability from unmatched rows.
    row_seen_v = np.zeros(nr, dtype=bool)
    col_seen_v = np.zeros(nc, dtype=bool)
    queue = deque(int(u) for u in np.flatnonzero(match_row == -1))
    for u in queue:
        row_seen_v[u] = True
    while queue:
        u = queue.popleft()
        for p in range(indptr[u], indptr[u + 1]):
            v = int(adj[p])
            if col_seen_v[v]:
                continue
            col_seen_v[v] = True
            w = int(match_col[v])
            if w != -1 and not row_seen_v[w]:
                row_seen_v[w] = True
                queue.append(w)
    row_label[row_seen_v] = VERTICAL
    col_label[col_seen_v] = VERTICAL
    return row_label, col_label


def coarse_dm(rows: np.ndarray, cols: np.ndarray) -> CoarseDM:
    """Coarse DM decomposition of the pattern ``{(rows[t], cols[t])}``.

    Only nonempty rows/columns participate (a fully empty row or column
    belongs to no block — the paper's DM form explicitly separates the
    zero bordering rows/columns).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    row_ids, r = np.unique(rows, return_inverse=True)
    col_ids, c = np.unique(cols, return_inverse=True)
    nr, nc = row_ids.size, col_ids.size

    indptr, adj = bipartite_adjacency(r, c, nr)
    match_row, match_col = hopcroft_karp(indptr, adj, nr, nc)

    # Column-side adjacency, needed for reachability from free columns.
    cindptr, cadj = bipartite_adjacency(c, r, nc)

    row_label, col_label = coarse_labels(
        indptr, adj, cindptr, cadj, match_row, match_col
    )
    msize = int(np.count_nonzero(match_row != -1))
    return CoarseDM(
        row_ids=row_ids,
        col_ids=col_ids,
        row_label=row_label,
        col_label=col_label,
        matching_size=msize,
    )


def minimum_cover_size(rows: np.ndarray, cols: np.ndarray) -> int:
    """Minimum number of rows and columns covering all nonzeros.

    Equals the maximum matching size (König) and, per the paper,
    ``m̂(H) + m̂(S) + n̂(V)`` of the DM decomposition.
    """
    dm = coarse_dm(rows, cols)
    return dm.matching_size

# ----------------------------------------------------------------------
# The two kernels' oracles
# ----------------------------------------------------------------------


def block_dm(row_off, col_off, rptr, adj, cptr, cadj):
    """``(row_label, col_label, matching_size)`` of a DM batch, as
    :func:`repro.native.ops.block_dm` returns them: per block,
    :func:`hopcroft_karp` and :func:`coarse_labels` on views of the
    shared buffers."""
    nb = row_off.size - 1
    row_label = np.empty(rptr.size - 1, dtype=np.int8)
    col_label = np.empty(cptr.size - 1, dtype=np.int8)
    sizes = np.empty(nb, dtype=np.int64)
    for i in range(nb):
        r0, r1 = int(row_off[i]), int(row_off[i + 1])
        c0, c1 = int(col_off[i]), int(col_off[i + 1])
        e0, e1 = int(rptr[r0]), int(rptr[r1])
        indptr = rptr[r0 : r1 + 1] - e0
        cindptr = cptr[c0 : c1 + 1] - e0
        match_row, match_col = hopcroft_karp(indptr, adj[e0:e1], r1 - r0, c1 - c0)
        row_label[r0:r1], col_label[c0:c1] = coarse_labels(
            indptr, adj[e0:e1], cindptr, cadj[e0:e1], match_row, match_col
        )
        sizes[i] = matching_size(match_row)
    return row_label, col_label, sizes


def s2d_flip(order, row_part, col_part, h_size, loads, w_lim, max_rounds):
    """The flip rounds of :func:`repro.core.s2d.s2d_heuristic` over
    Python ints, as :func:`repro.native.ops.s2d_flip` runs them:
    ``loads`` is updated in place; returns ``(chosen, rounds)``."""
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


@contextlib.contextmanager
def numpy_kernels():
    """Inside the block, :func:`repro.dm.batch.batched_block_dm` labels
    with :func:`block_dm` and :func:`repro.core.s2d.s2d_heuristic` flips
    with :func:`s2d_flip`, instead of calling the C kernels; everything
    around those two calls runs as it always does."""
    import repro.core.s2d as s2d_module
    import repro.dm.batch as batch_module

    oracle = types.SimpleNamespace(
        block_dm=lambda _lib, **arrays: block_dm(**arrays),
        s2d_flip=lambda _lib, **arrays: s2d_flip(**arrays),
    )
    saved = batch_module.native_ops, s2d_module.native_ops
    batch_module.native_ops = s2d_module.native_ops = oracle
    try:
        yield
    finally:
        batch_module.native_ops, s2d_module.native_ops = saved
