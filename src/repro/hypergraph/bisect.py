"""Multilevel bisection V-cycle.

Coarsen with heavy-connectivity matching until the hypergraph is small,
try several initial bisections (greedy growing / random), refine with
FM, then project back level by level refining at each.

When :func:`repro.native.resolve_backend` picks the native backend
and the generator is PCG64-backed (every generator
:func:`repro.rng.as_generator` and :func:`repro.rng.spawn` make), the
whole V-cycle is one call of ``kernels.c:repro_bisect``: the stages
below chained in C, with NumPy's random streams ported bit for bit.
The generator's final state is written back, so the caller's stream
continues as after the Python V-cycle.  Any other bit generator, and
the NumPy backend, run the Python V-cycle below over the NumPy stages,
which are the C stages' reference.  :func:`repro.hypergraph.partition_kway`
runs this V-cycle per subproblem, or on the native backend the whole
recursion as one call of ``kernels.c:repro_partition_kway``, whose
V-cycle is the same C code.

The ``ninitial`` coarsest-level trials run against shared precomputed
arrays: the coarsest hypergraph's incidence caches and the refinement
context (valid-net adjacency, gain bound) are built once on the
hypergraph object and reused by every trial and projection level.
Each stage runs under an ``obs.span("partition.<stage>")``; the
``partition.coarsen`` span counts the bisection and its levels.  The
native drivers record the same stages as timed events only while a
trace is open, and :func:`graft_stage_events` rebuilds the same spans
from them.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.hypergraph import coarsen
from repro.hypergraph.coarsen import coarsen_once
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.initial import greedy_growing, random_bisection
from repro.hypergraph.refine import _STALL_FRACTION, _target_array, fm_refine
from repro.native import get_kernels, resolve_backend
from repro.native import ops as native_ops
from repro.rng import pcg64_words, set_pcg64_words, spawn

__all__ = ["multilevel_bisect", "event_log", "graft_stage_events"]

#: Most coarsening levels one V-cycle builds.
MAX_LEVELS = 40

#: Span names of the native drivers' stage ids (kernels.c's EV_*).
_STAGES = (
    "partition.coarsen",
    "partition.coarsen.match",
    "partition.coarsen.contract",
    "partition.initial",
    "partition.refine",
    "partition.kway",
)


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
    if ninitial >= 1 and resolve_backend() == "native":
        words = pcg64_words(rng)
        if words is not None:
            events = event_log(native_ops.bisect_event_rows(ninitial, MAX_LEVELS))
            part, cut, nevents = native_ops.bisect(
                get_kernels(), xpins=hg.xpins, pins=hg.pins, xnets=hg.xnets,
                nets=hg.nets, vweights=hg.vweights, ncosts=hg.ncosts,
                targets=_target_array(targets), epsilon=epsilon, coarsen_to=coarsen_to,
                ninitial=ninitial, fm_passes=fm_passes, max_net_size=max_net_size,
                max_levels=MAX_LEVELS, stall_fraction=_STALL_FRACTION,
                hash_mask=coarsen._HASH_MASK, rng_state=words, events=events,
            )
            set_pcg64_words(rng, words)
            graft_stage_events(events, nevents)
            return part, cut

    levels: list[Hypergraph] = []
    maps: list[np.ndarray] = []
    cur = hg
    with obs.span("partition.coarsen"):
        obs.add("partition.bisections")
        while cur.nvertices > coarsen_to and len(levels) < MAX_LEVELS:
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


def event_log(rows: int) -> tuple[np.ndarray, np.ndarray] | None:
    """A native driver's event log of ``rows`` rows while a trace is
    open, else ``None`` (the driver then records nothing)."""
    if obs.active_trace() is None:
        return None
    return np.empty((rows, 3), dtype=np.int64), np.empty((rows, 2))


def graft_stage_events(events, count: int) -> None:
    """Graft the spans a native driver's first ``count`` events
    describe under the current span: the tree the Python drivers open.

    Each event is ``(stage, a, b)`` and ``(t0, t1)`` in :func:`obs.now`
    seconds.  A coarsen event carries the ``partition.bisections`` and
    ``partition.levels`` counters and adopts the match and contract
    events after it; a kway event with ``a >= 0`` carries the
    connectivity-1 cost before and after the polish.
    """
    if events is None:
        return
    roots: list[obs.Span] = []
    for (stage, a, b), (t0, t1) in zip(
        events[0][:count].tolist(), events[1][:count].tolist()
    ):
        sp = obs.Span(_STAGES[stage], t0=t0, dur=t1 - t0)
        if stage in (1, 2):
            roots[-1].children.append(sp)
            continue
        if stage == 0:
            sp.counters = {"partition.bisections": a, "partition.levels": b}
        elif stage == 5 and a >= 0:
            sp.counters = {"partition.cut_before_kway": a, "partition.cut_after_kway": b}
        roots.append(sp)
    obs.graft(roots, {})
