"""Hopcroft–Karp maximum bipartite matching.

Operates on a bipartite graph given in CSR-like form: ``adj_indptr`` /
``adj_cols`` list, for each left vertex (row), the right vertices
(columns) it is adjacent to.  Runs in ``O(E · sqrt(V))``.

This is the only matching routine in the library; the DM decomposition
and all s2D-optimality machinery sit on top of it.  It is implemented
iteratively (explicit stacks) so deep augmenting paths cannot overflow
Python's recursion limit.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.kernels import stable_order

__all__ = ["hopcroft_karp", "bipartite_adjacency", "is_matching", "matching_size"]

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
