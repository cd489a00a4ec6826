"""Direct K-way greedy refinement (connectivity-1 metric).

Recursive bisection optimizes each split locally; a final K-way pass
over boundary vertices recovers some of the cut that RB's fixed split
tree leaves behind — the same post-pass PaToH and kMetis apply.

A move of vertex ``v`` from part ``a`` to part ``b`` changes the
connectivity-1 cost by, per incident net ``e`` of cost ``c``:

- ``pc[e,a] == 1`` and ``pc[e,b] ≥ 1``: λ_e drops by one → gain ``+c``;
- ``pc[e,a] == 1`` and ``pc[e,b] == 0``: λ_e unchanged → ``0``;
- ``pc[e,a] ≥ 2`` and ``pc[e,b] == 0``: λ_e grows by one → gain ``−c``;
- otherwise λ_e unchanged → ``0``.

Moves are accepted greedily (best destination per boundary vertex) when
the gain is positive and the destination stays within the balance
limit.  Passes repeat until no move is applied.  The per-destination
gains of one vertex are evaluated as two small matrix products over the
``(incident nets × parts)`` pin-count slab, replacing the seed code's
nested Python loops; a move can therefore never increase the
connectivity-1 cost (only strictly positive gains are applied).

This module is the NumPy reference of the native driver's polish:
``kernels.c:repro_kway_passes``, run at the end of
``repro_partition_kway``, gives the same partition.  The reference
stays serial and dense: its ``(nnets × nparts)`` pin-count matrix
takes ``8 · nnets · K`` bytes (about 1 GB for 33,000 nets at
K = 4096).  The C polish keeps each net's parts as a set instead, in
O(pins) memory, and weighs only the parts on a vertex's nets: a part
on none of them has gain ``−T ≤ 0`` (``T`` sums the costs of the nets
where the vertex's part has two or more pins) and can never win.

Under an open trace the connectivity-1 cost before and after the
passes is charged to the innermost span (``partition.kway`` inside
:func:`repro.hypergraph.partition_kway`) as the counters
``partition.cut_before_kway`` / ``partition.cut_after_kway``, read off
the pin-count matrix the passes maintain.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partitioner import _lambda_cost
from repro.hypergraph.refine import _context, _RefineContext

__all__ = ["kway_greedy_refine"]


def kway_greedy_refine(
    hg: Hypergraph,
    part: np.ndarray,
    nparts: int,
    epsilon: float = 0.03,
    max_passes: int = 3,
) -> np.ndarray:
    """Polish a K-way partition in place-semantics (returns a copy)."""
    part = np.asarray(part, dtype=np.int64).copy()
    n = hg.nvertices
    if n == 0 or hg.nnets == 0 or nparts < 2:
        return part

    ctx = _context(hg)
    pc = np.zeros((hg.nnets, nparts), dtype=np.int64)
    np.add.at(pc, (hg.net_of_pin, part[hg.pins]), 1)
    traced = obs.active_trace() is not None
    if traced:
        lam = (pc > 0).sum(axis=1)
        obs.add("partition.cut_before_kway", _lambda_cost(lam, hg.ncosts))

    pw = np.zeros((nparts, hg.nconstraints), dtype=np.float64)
    np.add.at(pw, part, hg.vweights.astype(np.float64))
    limit = hg.total_weight().astype(np.float64) / nparts * (1.0 + epsilon)
    wfloat = hg.vweights.astype(np.float64)

    _kway_passes(hg, ctx, part, pc, pw, wfloat, limit, max_passes)
    if traced:
        lam = (pc > 0).sum(axis=1)
        obs.add("partition.cut_after_kway", _lambda_cost(lam, hg.ncosts))
    return part


def _kway_passes(
    hg: Hypergraph,
    ctx: _RefineContext,
    part: np.ndarray,
    pc: np.ndarray,
    pw: np.ndarray,
    wfloat: np.ndarray,
    limit: np.ndarray,
    max_passes: int,
) -> None:
    """The greedy passes: update ``part``, ``pc`` and ``pw`` in place."""
    xnets, nets = hg.xnets, hg.nets
    vipt, vnets = ctx.vnets_indptr, ctx.vnets
    ncosts = hg.ncosts

    for _ in range(max_passes):
        # Boundary vertices: touch a net spanning >= 2 parts.
        lam = (pc > 0).sum(axis=1)
        cut_nets = lam >= 2
        boundary = np.unique(hg.vert_of_pin[cut_nets[nets]])
        moved = 0
        for v in boundary.tolist():
            a = int(part[v])
            en = vnets[vipt[v] : vipt[v + 1]]
            if en.size == 0:
                continue
            slab = pc[en]  # (incident nets, nparts)
            acol = slab[:, a]
            c = ncosts[en]
            gains = (slab > 0).T @ np.where(acol == 1, c, 0)
            gains -= (slab == 0).T @ np.where(acol >= 2, c, 0)
            gains[a] = 0
            feasible = np.all(pw + wfloat[v] <= limit, axis=1)
            gains = np.where(feasible, gains, 0)
            best_b = int(np.argmax(gains))
            if gains[best_b] <= 0:
                continue
            en_all = nets[xnets[v] : xnets[v + 1]]
            pc[en_all, a] -= 1
            pc[en_all, best_b] += 1
            pw[a] -= wfloat[v]
            pw[best_b] += wfloat[v]
            part[v] = best_b
            moved += 1
        if moved == 0:
            break
