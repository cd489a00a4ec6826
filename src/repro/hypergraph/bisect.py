"""The multilevel bisection V-cycle, run in C.

One V-cycle coarsens the hypergraph by heavy-connectivity matching
(HCM, PaToH's default) until it is small, tries several initial
bisections of the coarsest level (greedy hypergraph growing and random
fills, alternating), refines the best with Fiduccia–Mattheyses (FM)
passes and projects it back level by level, refining at each:

- the matching visits the vertices in a random order; each unmatched
  vertex takes the unmatched neighbour of largest score
  ``Σ cost(e) / (|e| − 1)`` over the nets of 2 to ``max_net_size``
  pins they share, summed in ascending net id, the smaller id on ties;
- contraction merges each matched pair, keeps each pin of a net once,
  drops nets left with one pin and merges identical nets (found by two
  masked content hashes and an exact comparison of adjacent nets in
  hash order), summing their costs;
- FM moves vertices one at a time from integer gain buckets under the
  cut-net metric, with multi-constraint balance: a move is admissible
  when every constraint of the destination stays within
  ``(1 + ε)·target``, or when it strictly lowers the worst violation of
  an infeasible bisection; a pass stops after ``max(64, seeds /
  _STALL_FRACTION)`` moves without a better prefix and rolls back to
  the best one.

:func:`multilevel_bisect` is one call of ``kernels.c:repro_bisect``,
which draws NumPy's PCG64 streams bit for bit and writes the caller's
generator state back, so the stream continues as if NumPy had drawn
it.  :func:`repro.hypergraph.partition_kway` runs the same V-cycle per
subproblem inside one call of ``kernels.c:repro_partition_kway``.

This module is the one home of what both drivers read: the level cap,
the stall fraction, the hash mask, the targets' layout, and the event
log from which :func:`graft_stage_events` rebuilds the
``partition.<stage>`` spans while a trace is open.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.errors import ConfigError
from repro.hypergraph.hypergraph import Hypergraph
from repro.native import ops as native_ops
from repro.native import require_kernels
from repro.rng import pcg64_words, set_pcg64_words

if TYPE_CHECKING:
    from repro.hypergraph.partitioner import PartitionConfig

__all__ = ["multilevel_bisect", "event_log", "graft_stage_events"]

#: Most coarsening levels one V-cycle builds.
MAX_LEVELS = 40

# An FM pass stops after max(64, seeds / _STALL_FRACTION) consecutive
# moves without improving the best prefix: the tail of a full
# hill-climb is rolled back with overwhelming probability.
_STALL_FRACTION = 8

# ANDed into both content hashes of the contraction.  Tests set it to 0,
# so that every two nets of one size share a key and the exact pin
# comparison decides alone; with real hashes only a 128-bit collision
# reaches that path.
_HASH_MASK = (1 << 64) - 1

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
    config: PartitionConfig,
) -> tuple[np.ndarray, int]:
    """Bisect ``hg`` toward per-part ``targets`` within ``(1+ε)``.

    ``config`` supplies ``coarsen_to``, ``ninitial``, ``fm_passes`` and
    ``max_net_size``; its ``epsilon`` and ``seed`` are not read.
    ``rng`` must be PCG64-backed and is advanced.  Returns ``(part,
    cut)``: an int8 0/1 array over the vertices and the cut-net cost
    of the final bisection.

    Raises :class:`~repro.errors.ConfigError` for a generator on
    another bit generator or when the native kernels are unavailable.
    """
    lib = require_kernels()
    words = stream_words(rng)
    events = event_log(native_ops.bisect_event_rows(config.ninitial, MAX_LEVELS))
    part, cut, nevents = native_ops.bisect(
        lib, xpins=hg.xpins, pins=hg.pins, xnets=hg.xnets, nets=hg.nets,
        vweights=hg.vweights, ncosts=hg.ncosts, targets=_target_array(targets),
        epsilon=epsilon, coarsen_to=config.coarsen_to, ninitial=config.ninitial,
        fm_passes=config.fm_passes, max_net_size=config.max_net_size,
        max_levels=MAX_LEVELS, stall_fraction=_STALL_FRACTION, hash_mask=_HASH_MASK,
        rng_state=words, events=events,
    )
    set_pcg64_words(rng, words)
    graft_stage_events(events, nevents)
    return part, cut


def stream_words(rng: np.random.Generator) -> np.ndarray:
    """``rng``'s state as the six words the drivers advance; a
    :class:`~repro.errors.ConfigError` naming the bit generator unless
    it is PCG64, the only stream the drivers draw."""
    words = pcg64_words(rng)
    if words is None:
        raise ConfigError(
            "the partitioner draws from PCG64 streams, got a generator on "
            f"{type(rng.bit_generator).__name__}; seed it with an integer or "
            "numpy.random.default_rng"
        )
    return words


def _target_array(targets: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The two sides' targets as one float64 ``(2, ncon)`` array."""
    return np.array(targets, dtype=np.float64).reshape(2, -1)


def event_log(rows: int) -> tuple[np.ndarray, np.ndarray] | None:
    """A native driver's event log of ``rows`` rows while a trace is
    open, else ``None`` (the driver then records nothing)."""
    if obs.active_trace() is None:
        return None
    return np.empty((rows, 3), dtype=np.int64), np.empty((rows, 2))


def graft_stage_events(events, count: int) -> None:
    """Graft the spans a native driver's first ``count`` events
    describe under the current span.

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
