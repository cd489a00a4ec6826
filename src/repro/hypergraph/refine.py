"""Fiduccia–Mattheyses boundary refinement with integer gain buckets.

Cut-net metric (each net of cost ``c`` contributes ``c`` when it has
pins on both sides).  Under recursive bisection with cut-net splitting
this metric sums to the K-way connectivity-1 cost, which is exactly the
SpMV communication volume of the hypergraph models.

Balance is multi-constraint: a move is admissible only if every
constraint of the destination part stays within ``(1+ε)·target``, or if
it strictly reduces the worst violation when the partition is already
infeasible (needed right after projection in the V-cycle).

Implementation notes (the vectorized core):

- Move selection uses a classic FM **gain-bucket** structure — an array
  of doubly-linked lists indexed by integer gain, which is bounded by
  ``±Σ incident net costs`` — so select/update are O(1) instead of the
  seed implementation's lazy-deletion ``heapq`` (which accumulated
  millions of stale entries).
- Gains are initialized once per call and then maintained
  **incrementally**: applying a move updates only the pins of its
  critical nets (vectorized ragged gathers), and rolling back a move
  applies the inverse transition, so the gain array stays exact across
  passes and the per-pass ``initial_gains()`` recomputation of the seed
  code disappears.
- Nets with fewer than two pins are filtered out once up front into a
  per-vertex valid-net adjacency shared by every ``fm_refine`` call on
  the same hypergraph (and by the K-way polish).
- A pass whose best prefix shows no positive gain ends the refinement
  early (``max_passes`` is an upper bound, not a fixed trip count).
- The pass loop itself — select, apply, re-insert, best prefix,
  rollback — runs one move at a time.  :func:`_fm_setup` and
  :func:`_fm_passes` are the NumPy reference of the native V-cycle's
  refinement: ``kernels.c:repro_fm_passes``, run inside the C drivers,
  sets up the same state (pin counts, cut, side weights, gains, limits)
  and reproduces the passes bit for bit (integer counts and gains, the
  same float64 balance arithmetic, the same tie-breaks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import concat_spans as _ranges

__all__ = ["fm_refine", "bisection_cut", "part_weights"]

# A pass stops after this many consecutive moves without improving the
# best prefix score: the tail of a full hill-climb is rolled back with
# overwhelming probability, so walking it costs time and buys nothing.
# The quality golden tests pin the cut within 5% of the exhaustive seed
# implementation.
_STALL_FRACTION = 8  # limit = max(64, seeds/_STALL_FRACTION)


def part_weights(hg: Hypergraph, part: np.ndarray) -> np.ndarray:
    """Per-part, per-constraint weights; shape ``(2, ncon)``."""
    pw = np.zeros((2, hg.nconstraints), dtype=np.int64)
    np.add.at(pw, part, hg.vweights)
    return pw


def bisection_cut(hg: Hypergraph, part: np.ndarray) -> int:
    """Total cost of nets with pins on both sides."""
    sizes = np.diff(hg.xpins)
    side = part[hg.pins]
    ones = np.bincount(hg.net_of_pin, weights=side, minlength=hg.nnets).astype(
        np.int64
    )
    cut_mask = (ones > 0) & (ones < sizes)
    return int(hg.ncosts[cut_mask].sum())


def _violation(pw: np.ndarray, limits: np.ndarray) -> float:
    """Worst relative overrun of any (part, constraint) limit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(limits > 0, pw / limits, np.where(pw > 0, np.inf, 1.0))
    return float(rel.max())


@dataclass
class _RefineContext:
    """Per-hypergraph arrays shared by every refinement call.

    Cached on the hypergraph instance, so the ``ninitial``
    coarsest-level trials and the per-level projections of one V-cycle
    all reuse one construction.
    """

    sizes: np.ndarray  # pin count per net
    valid: np.ndarray  # bool per net: size >= 2 (the only refinable nets)
    vnets_indptr: np.ndarray  # CSR: vertex -> its valid nets
    vnets: np.ndarray
    gain_bound: int  # max_v sum of valid incident net costs


def _context(hg: Hypergraph) -> _RefineContext:
    ctx = hg.__dict__.get("_refine_ctx")
    if ctx is None:
        sizes = np.diff(hg.xpins)
        valid = sizes >= 2
        if valid.all():
            # Nothing to filter out (every contracted level and every
            # split side): the adjacency is the incidence itself.
            vnets, vnets_indptr = hg.nets, hg.xnets
        else:
            mask = valid[hg.nets]
            vnets = hg.nets[mask]
            counts = np.bincount(hg.vert_of_pin[mask], minlength=hg.nvertices)
            vnets_indptr = np.zeros(hg.nvertices + 1, dtype=np.int64)
            np.cumsum(counts, out=vnets_indptr[1:])
        if vnets.size:
            # Exact int64 sums per vertex: differences of a running sum.
            csum = np.zeros(vnets.size + 1, dtype=np.int64)
            np.cumsum(hg.ncosts[vnets], out=csum[1:])
            gain_bound = int(np.max(csum[vnets_indptr[1:]] - csum[vnets_indptr[:-1]]))
        else:
            gain_bound = 0
        ctx = _RefineContext(
            sizes=sizes,
            valid=valid,
            vnets_indptr=vnets_indptr,
            vnets=vnets,
            gain_bound=gain_bound,
        )
        hg.__dict__["_refine_ctx"] = ctx
    return ctx


def fm_refine(
    hg: Hypergraph,
    part: np.ndarray,
    targets: tuple[np.ndarray, np.ndarray],
    epsilon: float,
    max_passes: int = 4,
) -> tuple[np.ndarray, int]:
    """Refine a bisection in place-semantics (a refined copy is returned).

    Returns ``(part, cut)`` with the final cut-net cost.
    """
    part = np.asarray(part, dtype=np.int8).copy()
    n = hg.nvertices
    if n == 0 or hg.nnets == 0:
        return part, 0

    ctx = _context(hg)
    inv_limits, limit_pos = _limits(targets, epsilon)
    pc, cut, pw, gain = _fm_setup(hg, ctx, part)
    cut = _fm_passes(
        hg, ctx, part, pc, gain, pw, hg.vweights.astype(np.float64), inv_limits,
        limit_pos, max_passes, cut,
    )
    return part, cut


def _target_array(targets: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The two sides' targets as one float64 ``(2, ncon)`` array."""
    return np.array(targets, dtype=np.float64).reshape(2, -1)


def _limits(
    targets: tuple[np.ndarray, np.ndarray], epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(inv_limits, limit_pos)`` of the side limits ``target · (1+ε)``:
    reciprocals where a limit is positive, else 0 (the zero-limit
    convention of :func:`_violation`), and that positivity mask."""
    limits = _target_array(targets) * (1.0 + epsilon)
    limit_pos = limits > 0
    inv_limits = np.zeros_like(limits)
    np.divide(1.0, limits, out=inv_limits, where=limit_pos)
    return inv_limits, limit_pos


def _fm_setup(
    hg: Hypergraph, ctx: _RefineContext, part: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """The pass loop's starting state from ``part``: ``(pc, cut, pw,
    gain)`` — pin counts per net per side, the cut, float64 side
    weights and every vertex's exact move gain.  The reference of the
    set-up inside ``kernels.c:repro_fm_passes``."""
    n = hg.nvertices
    ncosts = hg.ncosts
    vert_of_pin = hg.vert_of_pin
    pc = np.zeros((hg.nnets, 2), dtype=np.int64)
    np.add.at(pc, (hg.net_of_pin, part[hg.pins].astype(np.int64)), 1)
    cut = int(ncosts[(pc[:, 0] > 0) & (pc[:, 1] > 0)].sum())
    pw = part_weights(hg, part).astype(np.float64)

    # Exact gains for every vertex, computed once and maintained
    # incrementally by the pass loop (forward moves and rollbacks alike).
    gain = np.zeros(n, dtype=np.int64)
    pv = part[vert_of_pin].astype(np.int64)
    ee = hg.nets
    vm = ctx.valid[ee]
    ub = vm & (pc[ee, pv] == 1)
    cp = vm & (pc[ee, 1 - pv] == 0)
    np.add.at(gain, vert_of_pin[ub], ncosts[ee[ub]])
    np.subtract.at(gain, vert_of_pin[cp], ncosts[ee[cp]])
    return pc, cut, pw, gain


def _fm_passes(
    hg: Hypergraph,
    ctx: _RefineContext,
    part: np.ndarray,
    pc: np.ndarray,
    gain: np.ndarray,
    pw: np.ndarray,
    wfloat: np.ndarray,
    inv_limits: np.ndarray,
    limit_pos: np.ndarray,
    max_passes: int,
    cut: int,
) -> int:
    """The FM pass loop: updates ``part``, ``pc`` and ``gain`` in place
    and returns the final cut."""
    n = hg.nvertices
    xpins, pins, ncosts = hg.xpins, hg.pins, hg.ncosts
    vipt, vnets = ctx.vnets_indptr, ctx.vnets
    vert_of_pin = hg.vert_of_pin
    has_zero_limit = bool(np.any(~limit_pos))

    def _viol(pw: np.ndarray) -> float:
        rel = float((pw * inv_limits).max())
        if has_zero_limit:
            if np.any(pw[~limit_pos] > 0):
                return float("inf")
            rel = max(rel, 1.0)
        return rel

    gmax = ctx.gain_bound
    nbuckets = 2 * gmax + 1
    bhead = np.full(nbuckets, -1, dtype=np.int64)
    nxt = np.full(n, -1, dtype=np.int64)
    prv = np.full(n, -1, dtype=np.int64)
    inb = np.zeros(n, dtype=bool)
    bpos = np.zeros(n, dtype=np.int64)  # bucket index while linked
    locked = np.zeros(n, dtype=bool)

    def _insert(v: int, g: int) -> int:
        b = g + gmax
        h = bhead[b]
        nxt[v] = h
        prv[v] = -1
        if h >= 0:
            prv[h] = v
        bhead[b] = v
        inb[v] = True
        bpos[v] = b
        return b

    def _unlink(v: int) -> None:
        b = bpos[v]
        p, q = prv[v], nxt[v]
        if p >= 0:
            nxt[p] = q
        else:
            bhead[b] = q
        if q >= 0:
            prv[q] = p
        inb[v] = False

    sizes = ctx.sizes
    _empty = np.empty(0, dtype=np.int64)

    def _apply(v: int, a: int, b: int) -> np.ndarray:
        """Move ``v`` from side ``a`` to ``b``; update pc/part/gains.

        Returns the (possibly duplicated) array of other vertices whose
        gain changed.  ``gain[v]`` itself flips sign (the move-back
        gain), exactly preserving the invariant for every vertex.

        Critical transitions, per incident net of cost ``c``:
        A ``pc[e,b]==0`` — net becomes cut: every pin gains ``+c``;
        D ``pc[e,a]==1`` — net becomes internal to ``b``: every pin ``−c``;
        B ``pc[e,b]==1`` — the lone ``b`` pin loses its bonus: ``−c``;
        C ``pc[e,a]==2`` — the remaining ``a`` pin gains it: ``+c``.
        A/D update all pins unconditionally; B/C filter by current side.
        """
        lo, hi = vipt[v], vipt[v + 1]
        en = vnets[lo:hi]
        if en.size == 0:
            part[v] = b
            gain[v] = -gain[v]
            return _empty
        pa = pc[en, a]
        pb = pc[en, b]
        c = ncosts[en]
        g_old = int(gain[v])
        # Unconditional deltas (cases A and D are mutually exclusive).
        mad = (pb == 0) | (pa == 1)
        ead = en[mad]
        # Side-filtered deltas; one net can be in both B and C (size 3).
        mb = pb == 1
        mc = pa == 2
        ebc = np.concatenate((en[mb], en[mc]))
        if ead.size:
            lens = sizes[ead]
            us1 = pins[_ranges(xpins[ead], lens)]
            d1 = np.repeat(np.where(pb[mad] == 0, c[mad], -c[mad]), lens)
        else:
            us1, d1 = _empty, _empty
        if ebc.size:
            nb = int(mb.sum())
            lens = sizes[ebc]
            us2 = pins[_ranges(xpins[ebc], lens)]
            tgt = np.repeat(
                np.concatenate((np.full(nb, b, dtype=np.int8),
                                np.full(ebc.size - nb, a, dtype=np.int8))),
                lens,
            )
            d2 = np.repeat(np.concatenate((-c[mb], c[mc])), lens)
            keep = (part[us2] == tgt) & (us2 != v)
            us2 = us2[keep]
            d2 = d2[keep]
        else:
            us2, d2 = _empty, _empty
        if us1.size or us2.size:
            us = np.concatenate((us1, us2))
            np.add.at(gain, us, np.concatenate((d1, d2)))
        else:
            us = _empty
        pc[en, a] = pa - 1
        pc[en, b] = pb + 1
        part[v] = b
        # v's own gain is fully determined by the flip; overwrite any
        # spurious per-pin delta it received above.
        gain[v] = -g_old
        return us[us != v] if us.size else us

    for _ in range(max_passes):
        # Seeds: vertices on a cut net (the only useful FM starts).
        cut_nets = (pc[:, 0] > 0) & (pc[:, 1] > 0)
        if np.any(cut_nets):
            seeds = np.unique(vert_of_pin[cut_nets[hg.nets]])
        else:
            seeds = np.arange(n)
        if seeds.size == 0:
            break

        bhead.fill(-1)
        inb.fill(False)
        locked.fill(False)
        cur = 0
        for v in seeds.tolist():
            cur = max(cur, _insert(v, int(gain[v])))

        moves: list[int] = []
        move_sides: list[int] = []
        gain_sums: list[int] = []
        # Prefix score: feasibility dominates gain, so that a pass that
        # starts from an infeasible projection keeps its repair moves
        # even when they cut nets (all feasible states compare equal on
        # the first component).
        running = 0
        cur_violation = _viol(pw)
        initial_score = (max(cur_violation, 1.0), 0)
        best_so_far = initial_score
        best_pos = -1
        stall_limit = max(64, seeds.size // _STALL_FRACTION)

        # Scalar fast path for the ubiquitous single-constraint case.
        scalar = hg.nconstraints == 1 and not has_zero_limit
        if scalar:
            il0 = float(inv_limits[0, 0])
            il1 = float(inv_limits[1, 0])
            wl = wfloat[:, 0]
            p0 = float(pw[0, 0])
            p1 = float(pw[1, 0])

        while cur >= 0:
            v = int(bhead[cur])
            if v < 0:
                cur -= 1
                continue
            _unlink(v)
            a = int(part[v])
            b = 1 - a
            if scalar:
                w = wl[v]
                n0, n1 = (p0 - w, p1 + w) if a == 0 else (p0 + w, p1 - w)
                new_violation = max(n0 * il0, n1 * il1)
            else:
                w = wfloat[v]
                new_pw = pw.copy()
                new_pw[a] -= w
                new_pw[b] += w
                new_violation = _viol(new_pw)
            if new_violation > 1.0 and new_violation >= cur_violation:
                continue  # inadmissible: would (keep) violating balance
            locked[v] = True
            move_gain = int(gain[v])
            changed = _apply(v, a, b)
            if changed.size:
                changed = np.unique(changed)
                for u in changed[~locked[changed]].tolist():
                    if inb[u]:
                        _unlink(u)
                    cur = max(cur, _insert(u, int(gain[u])))
            running += move_gain
            if scalar:
                p0, p1 = n0, n1
            else:
                pw = new_pw
            cur_violation = new_violation
            moves.append(v)
            move_sides.append(b)
            gain_sums.append(running)
            score = (max(cur_violation, 1.0), -running)
            if score < best_so_far:
                best_so_far = score
                best_pos = len(moves) - 1
            elif len(moves) - 1 - best_pos >= stall_limit:
                break  # the tail is heading for rollback anyway
        if scalar:
            pw = np.array([[p0], [p1]])

        if not moves:
            break
        # best_pos is the first index achieving the minimal prefix
        # score, or -1 when no prefix improves on the pass's start.
        best_idx = best_pos
        best_gain = gain_sums[best_idx] if best_idx >= 0 else 0
        # Roll back moves after the best prefix (inverse transitions
        # keep the incremental gain array exact for the next pass).
        for i in range(len(moves) - 1, best_idx, -1):
            v = moves[i]
            b = move_sides[i]
            a = 1 - b
            _apply(v, b, a)
            w = wfloat[v]
            pw[b] -= w
            pw[a] += w
        if best_idx == -1:
            break
        cut -= best_gain  # negative best_gain = volume paid for balance
        if best_gain <= 0 and best_so_far[0] <= 1.0:
            break  # feasible and no volume improvement: converged

    return cut
