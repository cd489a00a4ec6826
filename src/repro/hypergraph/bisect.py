"""Multilevel bisection V-cycle.

Coarsen with heavy-connectivity matching until the hypergraph is small,
try several initial bisections (greedy growing / random), refine with
FM, then project back level by level refining at each.

The ``ninitial`` coarsest-level trials run against shared precomputed
arrays: the coarsest hypergraph's incidence caches and the refinement
context (valid-net adjacency, gain bound) are built once on the
hypergraph object and reused by every trial and projection level.
Each stage runs under an ``obs.span("partition.<stage>")``; the
``partition.coarsen`` span counts the bisection and its levels.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.hypergraph.coarsen import coarsen_once
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.initial import greedy_growing, random_bisection
from repro.hypergraph.refine import fm_refine
from repro.rng import spawn

__all__ = ["multilevel_bisect"]


def multilevel_bisect(
    hg: Hypergraph,
    targets: tuple[np.ndarray, np.ndarray],
    epsilon: float,
    rng: np.random.Generator,
    coarsen_to: int = 120,
    ninitial: int = 4,
    fm_passes: int = 4,
    max_net_size: int = 200,
) -> tuple[np.ndarray, int]:
    """Bisect ``hg`` toward per-part ``targets`` within ``(1+ε)``.

    Returns ``(part, cut)``: a 0/1 array over the vertices and the
    cut-net cost of the final bisection.
    """
    levels: list[Hypergraph] = []
    maps: list[np.ndarray] = []
    cur = hg
    with obs.span("partition.coarsen"):
        obs.add("partition.bisections")
        while cur.nvertices > coarsen_to and len(levels) < 40:
            cmap, coarse = coarsen_once(cur, rng, max_net_size=max_net_size)
            if coarse.nvertices > 0.95 * cur.nvertices:
                break  # matching stalled; further levels would be no-ops
            levels.append(cur)
            maps.append(cmap)
            cur = coarse
        obs.add("partition.levels", len(levels))

    best_part: np.ndarray | None = None
    best_cut = np.iinfo(np.int64).max
    for trial, trial_rng in enumerate(spawn(rng, ninitial)):
        with obs.span("partition.initial"):
            if trial % 2 == 0:
                part0 = greedy_growing(cur, targets, trial_rng)
            else:
                part0 = random_bisection(cur, targets, trial_rng)
        with obs.span("partition.refine"):
            part0, cut0 = fm_refine(cur, part0, targets, epsilon, max_passes=fm_passes)
        if cut0 < best_cut:
            best_cut = cut0
            best_part = part0
    assert best_part is not None
    part = best_part

    with obs.span("partition.refine"):
        for level_hg, cmap in zip(reversed(levels), reversed(maps)):
            part = part[cmap]
            part, best_cut = fm_refine(
                level_hg, part, targets, epsilon, max_passes=fm_passes
            )
    return part, best_cut
