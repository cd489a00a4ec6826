"""The Hopcroft–Karp oracle of ``tests/dm_oracle.py``: unit tests and
property tests against networkx."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.dm_oracle import (
    bipartite_adjacency,
    hopcroft_karp,
    is_matching,
    matching_size,
)


def _match(rows, cols, nr, nc):
    indptr, adj = bipartite_adjacency(np.asarray(rows), np.asarray(cols), nr)
    return hopcroft_karp(indptr, adj, nr, nc)


def test_perfect_matching_identity():
    mr, mc = _match([0, 1, 2], [0, 1, 2], 3, 3)
    assert matching_size(mr) == 3
    assert is_matching(mr, mc)


def test_empty_graph():
    mr, mc = _match([], [], 3, 4)
    assert matching_size(mr) == 0
    assert np.all(mr == -1) and np.all(mc == -1)


def test_star_graph_matches_one():
    # one row connected to all columns
    mr, mc = _match([0, 0, 0], [0, 1, 2], 1, 3)
    assert matching_size(mr) == 1


def test_needs_augmentation():
    # Greedy init can match 0-0; augmenting path needed for both rows.
    # rows: 0-{0,1}, 1-{0}
    mr, mc = _match([0, 0, 1], [0, 1, 0], 2, 2)
    assert matching_size(mr) == 2


def test_long_augmenting_chain():
    # Path graph forcing a chain of flips: rows i -> cols {i, i+1}
    n = 50
    rows = [i for i in range(n) for _ in range(2)]
    cols = []
    for i in range(n):
        cols += [i, i + 1]
    mr, _ = _match(rows, cols, n, n + 1)
    assert matching_size(mr) == n


def test_duplicate_edges_tolerated():
    mr, _ = _match([0, 0, 0], [1, 1, 1], 1, 2)
    assert matching_size(mr) == 1


def test_rectangular_wide():
    mr, mc = _match([0, 1], [5, 6], 2, 8)
    assert matching_size(mr) == 2
    assert is_matching(mr, mc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matching_maximum_vs_networkx(data):
    nx = pytest.importorskip("networkx")
    nr = data.draw(st.integers(1, 12))
    nc = data.draw(st.integers(1, 12))
    nedges = data.draw(st.integers(0, 40))
    rows = data.draw(
        st.lists(st.integers(0, nr - 1), min_size=nedges, max_size=nedges)
    )
    cols = data.draw(
        st.lists(st.integers(0, nc - 1), min_size=nedges, max_size=nedges)
    )
    mr, mc = _match(rows, cols, nr, nc)
    assert is_matching(mr, mc)
    # matched pairs must be actual edges
    edges = set(zip(rows, cols))
    for u, v in enumerate(mr):
        if v != -1:
            assert (u, int(v)) in edges
    g = nx.Graph()
    g.add_nodes_from((("r", i) for i in range(nr)), bipartite=0)
    g.add_nodes_from((("c", j) for j in range(nc)), bipartite=1)
    g.add_edges_from((("r", r), ("c", c)) for r, c in zip(rows, cols))
    ref = nx.algorithms.bipartite.maximum_matching(
        g, top_nodes=[("r", i) for i in range(nr)]
    )
    assert matching_size(mr) == len(ref) // 2
