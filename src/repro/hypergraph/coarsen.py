"""Agglomerative coarsening by heavy-connectivity matching.

Pairs of vertices sharing many (and small) nets are merged, shrinking
the hypergraph while approximately preserving its cut structure — the
same scheme PaToH uses by default (HCM).

The greedy matching walks a random visitation order; each unmatched
vertex ``v`` takes the unmatched neighbour ``u`` of largest
connectivity score ``S[v, u] = Σ cost(e) / (|e| − 1)`` over the scoring
nets they share, the smaller ``u`` on ties.  The scores are the rows of
the sparse product ``Bᵀ·(W·B)`` of the net–vertex incidence, each
summed over the shared nets in ascending net id.

Contraction merges each matched pair, de-duplicates every net's pins,
drops nets left with one pin and merges identical nets, summing their
costs.  It runs as array passes: one composite-key sort de-duplicates
pins within nets, and identical coarse nets are found by hash
bucketing with exact pin-array verification.

This module is the NumPy reference of the native V-cycle: the C
drivers behind :func:`repro.hypergraph.partition_kway` and
:func:`repro.hypergraph.bisect.multilevel_bisect` match on the fly
(``kernels.c:repro_hcm_match``, same sums in the same order, same
tie-break) and contract in one pass per net plus one sort
(``repro_contract``, same net order and adjacent-pair merge rule), so
their coarse hypergraphs are these bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import concat_ranges

__all__ = ["coarsen_once"]

# ANDed into both content hashes of the contraction.  Tests set it to 0,
# so that every two nets of one size share a key and the exact pin
# comparison decides alone; with real hashes only a 128-bit collision
# reaches that path.
_HASH_MASK = (1 << 64) - 1


def _pair_scores(hg: Hypergraph, max_net_size: int) -> sp.csr_matrix | None:
    """CSR matrix of HCM connectivity scores between all vertex pairs.

    ``S[v, u] = Σ_{e ∋ v,u} cost(e) / (|e| − 1)`` over nets with
    ``2 ≤ |e| ≤ max_net_size`` (larger nets carry a diffuse signal and
    would cost ``O(|e|²)``).  ``None`` when no net qualifies.  The
    diagonal holds self-scores; callers must skip ``u == v``.
    """
    sizes = hg.net_sizes()
    valid = (sizes >= 2) & (sizes <= max_net_size)
    if not np.any(valid):
        return None
    keep = valid[hg.net_of_pin]
    e = hg.net_of_pin[keep]
    v = hg.pins[keep]
    contrib = hg.ncosts[e] / (sizes[e] - 1)
    shape = (hg.nnets, hg.nvertices)
    incidence = sp.csr_matrix((np.ones(e.size), (e, v)), shape=shape)
    weighted = sp.csr_matrix((contrib, (e, v)), shape=shape)
    return (incidence.T @ weighted).tocsr()


def coarsen_once(
    hg: Hypergraph,
    rng: np.random.Generator,
    max_net_size: int = 200,
) -> tuple[np.ndarray, Hypergraph]:
    """One level of heavy-connectivity matching.

    Returns ``(cmap, coarse)`` where ``cmap[v]`` is the coarse vertex
    holding fine vertex ``v``.  Nets of more than ``max_net_size`` pins
    are skipped during scoring.
    """
    with obs.span("partition.coarsen.match"):
        mate = _hcm_match(hg, rng, max_net_size)

    with obs.span("partition.coarsen.contract"):
        cmap, ncoarse = _cluster_ids(mate)
        return cmap, _contract(hg, cmap, ncoarse)


def _hcm_match(hg: Hypergraph, rng: np.random.Generator, max_net_size: int) -> np.ndarray:
    """``mate`` array of the greedy HCM matching (``-1``: unmatched).

    The visitation order is drawn only when some net can score.  Each
    visited vertex's partner comes from its row of the score matrix.
    The rows' column indices are sorted, so ``np.argmax`` over the
    masked scores is "largest score, smallest id on ties".
    """
    mate = np.full(hg.nvertices, -1, dtype=np.int64)
    scores = _pair_scores(hg, max_net_size)
    if scores is None:
        return mate
    order = rng.permutation(hg.nvertices)
    indptr, indices, data = scores.indptr, scores.indices, scores.data
    for v in order:
        if mate[v] != -1:
            continue
        lo, hi = indptr[v], indptr[v + 1]
        if hi == lo:
            continue
        cand = indices[lo:hi]
        sc = np.where((mate[cand] == -1) & (cand != v), data[lo:hi], 0.0)
        j = int(np.argmax(sc))
        if sc[j] > 0.0:
            u = int(cand[j])
            mate[v] = u
            mate[u] = v
    return mate


def _cluster_ids(mate: np.ndarray) -> tuple[np.ndarray, int]:
    """``(cmap, ncoarse)`` of a matching.

    The smaller endpoint of each pair names the cluster; ids are dealt
    in ascending root order (= first-encounter order of a 0..n−1 scan,
    as the seed implementation assigned them).
    """
    ids = np.arange(mate.size, dtype=np.int64)
    root = np.where(mate >= 0, np.minimum(ids, mate), ids)
    uniq, cmap = np.unique(root, return_inverse=True)
    return cmap.astype(np.int64), int(uniq.size)


def _contract(hg: Hypergraph, cmap: np.ndarray, ncoarse: int) -> Hypergraph:
    """Contract ``hg`` along ``cmap`` into ``ncoarse`` vertices.

    Per-net pins are remapped and deduplicated; single-pin nets are
    dropped (they can never be cut); *identical* nets are merged with
    their costs summed in int64, which keeps coarse FM gains faithful.
    All steps are array passes.  The live nets are ordered stably by
    ``(size, h1, h2)`` with two independent 64-bit content hashes, and
    each net merges into its predecessor's group when their pins are
    equal, so no two distinct nets are ever merged (a hash collision can
    only *miss* a merge, never corrupt one).
    """
    vweights = np.zeros((ncoarse, hg.nconstraints), dtype=np.int64)
    np.add.at(vweights, cmap, hg.vweights)

    empty = Hypergraph(
        xpins=np.zeros(1, dtype=np.int64),
        pins=np.empty(0, dtype=np.int64),
        vweights=vweights,
        ncosts=np.empty(0, dtype=np.int64),
    )
    if hg.nnets == 0 or hg.pins.size == 0:
        return empty

    # Remap + dedup within nets via one composite-key sort: the key
    # orders by net id, then by coarse pin id inside each net.
    key = hg.net_of_pin * np.int64(ncoarse) + cmap[hg.pins]
    key = np.sort(key)
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    net = key // ncoarse
    pin = key % ncoarse

    counts = np.bincount(net, minlength=hg.nnets)
    live = counts >= 2
    if not np.any(live):
        return empty
    keep = live[net]
    net, pin = net[keep], pin[keep]
    live_ids = np.flatnonzero(live)
    csizes = counts[live_ids].astype(np.int64)
    costs = hg.ncosts[live_ids].astype(np.int64)
    nlive = int(live_ids.size)
    xp = np.zeros(nlive + 1, dtype=np.int64)
    np.cumsum(csizes, out=xp[1:])

    # Content hashes (pins are sorted within each net, so position is
    # well-defined and the combined digest is order-sensitive).
    pos = np.arange(pin.size, dtype=np.int64) - np.repeat(xp[:-1], csizes)
    mixed = _mix64(
        (pin.astype(np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
        ^ (pos.astype(np.uint64) + np.uint64(1)) * np.uint64(0xBF58476D1CE4E5B9)
    )
    mask = np.uint64(_HASH_MASK)
    h1 = np.bitwise_xor.reduceat(mixed, xp[:-1]) & mask
    h2 = np.add.reduceat(mixed, xp[:-1]) & mask

    order = np.lexsort((h2, h1, csizes))
    so = csizes[order]
    h1o, h2o = h1[order], h2[order]
    same_key = (so[1:] == so[:-1]) & (h1o[1:] == h1o[:-1]) & (h2o[1:] == h2o[:-1])
    dup = np.zeros(nlive, dtype=bool)  # dup[i]: net order[i] == net order[i−1]
    cand = np.flatnonzero(same_key)
    if cand.size:
        a_start = xp[order[cand]]
        b_start = xp[order[cand + 1]]
        length = so[cand]
        eq = pin[concat_ranges(a_start, a_start + length)] == pin[
            concat_ranges(b_start, b_start + length)
        ]
        seg_starts = np.concatenate(([0], np.cumsum(length)[:-1]))
        dup[cand + 1] = np.logical_and.reduceat(eq, seg_starts)

    starts = np.flatnonzero(~dup)  # groups are runs of the sorted order
    reps = order[starts]  # first member of each group
    gcosts = np.add.reduceat(costs[order], starts)
    rsizes = csizes[reps]
    new_xpins = np.zeros(reps.size + 1, dtype=np.int64)
    np.cumsum(rsizes, out=new_xpins[1:])
    new_pins = pin[concat_ranges(xp[reps], xp[reps] + rsizes)]
    return Hypergraph(
        xpins=new_xpins,
        pins=new_pins,
        vweights=vweights,
        ncosts=gcosts,
    )


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise over ``uint64``."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x
