"""Initial bisections for the coarsest hypergraph.

Two constructors, used as alternating trials by the multilevel driver:

- :func:`random_bisection` — shuffled greedy fill to the target weight;
- :func:`greedy_growing` — greedy hypergraph growing (GHG): grow part 0
  from a random seed, always absorbing the vertex most connected to the
  growing part, until the target weight is reached.

Both return a 0/1 part array; quality is left to FM refinement.

Greedy growing keeps one float gain array.  An absorption adds each of
its scoring nets' per-pin share ``cost / (|e| − 1)`` to every pin, and
the free pins become candidates, selected by (gain descending, id
ascending).  Vertices that once failed the balance check are retired
permanently — part-0 weight only grows, so they can never fit again.

This module is the NumPy reference of the native V-cycle's initial
bisections (``kernels.c:repro_greedy_grow`` and ``repro_random_fill``,
run inside the C drivers), which draw the same permutations and
reproduce both loops bit for bit.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import concat_ranges

__all__ = ["random_bisection", "greedy_growing"]


def _fits(pw0: np.ndarray, w: np.ndarray, t0: np.ndarray) -> bool:
    """Would adding weight ``w`` keep part 0 at or below its target?"""
    return bool(np.all(pw0 + w <= t0))


def random_bisection(
    hg: Hypergraph, targets: tuple[np.ndarray, np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Fill part 0 with randomly ordered vertices up to its target
    weight; the part weight stays int64 and converts for the
    comparison."""
    t0 = np.ascontiguousarray(targets[0], dtype=np.float64)
    part = np.ones(hg.nvertices, dtype=np.int8)
    pw0 = np.zeros(hg.nconstraints, dtype=np.int64)
    for v in rng.permutation(hg.nvertices):
        w = hg.vweights[v]
        if _fits(pw0, w, t0):
            part[v] = 0
            pw0 += w
    return part


def greedy_growing(
    hg: Hypergraph, targets: tuple[np.ndarray, np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Greedy hypergraph growing from a random seed vertex.

    The connectivity bumps of one absorption land in one ``np.add.at``
    over the pins of its valid nets, in net order; the touched free
    vertices re-enter a lazy-deletion heap.
    """
    n = hg.nvertices
    if n == 0:
        return np.ones(0, dtype=np.int8)
    t0 = np.ascontiguousarray(targets[0], dtype=np.float64)
    sizes = hg.net_sizes()
    valid = sizes >= 2
    contrib = np.zeros(hg.nnets, dtype=np.float64)
    np.divide(hg.ncosts, sizes - 1, out=contrib, where=valid)
    seed_order = rng.permutation(n)
    part = np.ones(n, dtype=np.int8)
    pw0 = np.zeros(hg.nconstraints, dtype=np.float64)
    vw = hg.vweights
    xpins, pins = hg.xpins, hg.pins
    xnets, nets = hg.xnets, hg.nets

    gain = np.zeros(n, dtype=np.float64)
    absorbed = np.zeros(n, dtype=bool)
    retired = np.zeros(n, dtype=bool)

    # Lazy-deletion heap over gain snapshots: stale entries (absorbed,
    # retired, or superseded by a later bump) are skipped on pop.  Ties
    # break on the lower vertex id, which keeps the grown region
    # compact on regular instances.
    heap: list[tuple[float, int]] = []
    seed_ptr = 0

    while True:
        v = -1
        while heap:
            g, u = heapq.heappop(heap)
            if not absorbed[u] and not retired[u] and -g == gain[u]:
                v = u
                break
        if v < 0:
            # (Re)seed: the next untaken vertex in random order.
            while seed_ptr < n and (
                absorbed[seed_order[seed_ptr]] or retired[seed_order[seed_ptr]]
            ):
                seed_ptr += 1
            if seed_ptr >= n:
                break
            v = int(seed_order[seed_ptr])
            gain[v] = 0.0
        w = vw[v]
        if not _fits(pw0, w, t0):
            retired[v] = True
            continue
        absorbed[v] = True
        part[v] = 0
        pw0 += w
        if np.all(pw0 >= t0):
            break
        en = nets[xnets[v] : xnets[v + 1]]
        en = en[valid[en]]
        if en.size:
            us = pins[concat_ranges(xpins[en], xpins[en + 1])]
            np.add.at(gain, us, np.repeat(contrib[en], sizes[en]))
            for u in np.unique(us).tolist():
                if not absorbed[u] and not retired[u]:
                    heapq.heappush(heap, (-gain[u], u))
    return part
