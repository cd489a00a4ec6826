"""K-way hypergraph partitioning by recursive bisection.

Cut nets are *split* between the two sides of every bisection, so the
sum of the bisection cut-net costs telescopes into the K-way
connectivity-1 cost — the metric that equals SpMV communication volume
under the models of :mod:`repro.hypergraph.models`.  This is the same
strategy PaToH applies for the connectivity metric.

When :func:`repro.native.resolve_backend` picks the native backend and
the generator is PCG64-backed, :func:`partition_kway` is one call of
``kernels.c:repro_partition_kway``: every bisection's V-cycle, the
side splits and the K-way polish, with NumPy's random streams ported
bit for bit, so the parts are those of the Python driver below
(:func:`_recurse`, :func:`_split_side`).  The two sides of a split
share nothing, so the call runs them on separate threads, up to
:func:`repro.jobs.partition_threads`; the parts do not depend on the
thread count.  The Python driver is the reference and serves the
NumPy backend and a generator on any other bit generator; its
V-cycles are :func:`multilevel_bisect` calls, so on the native backend
those drawn from PCG64 streams (every subproblem's, as
:func:`repro.rng.spawn` makes them) are one ``repro_bisect`` call
each.  Under an open trace the kernels log their stages and the same
spans are grafted in.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigError, ModelError
from repro.hypergraph import coarsen
from repro.hypergraph.bisect import (
    MAX_LEVELS,
    event_log,
    graft_stage_events,
    multilevel_bisect,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.refine import _STALL_FRACTION
from repro.jobs import partition_threads
from repro.kernels import grouped_distinct_counts
from repro.native import get_kernels, resolve_backend
from repro.native import ops as native_ops
from repro.rng import as_generator, pcg64_words, set_pcg64_words, spawn

__all__ = [
    "PartitionConfig",
    "partition_kway",
    "connectivity_minus_one",
    "cutnet_cost",
    "imbalance",
    "net_connectivities",
]


@dataclass(frozen=True)
class PartitionConfig:
    """Tuning knobs of the multilevel recursive-bisection partitioner.

    ``epsilon`` is the final K-way imbalance tolerance; the paper uses
    PaToH's default 3%.  Each bisection level receives the per-level
    tolerance ``(1+ε)^(1/⌈log2 K⌉) − 1`` so compounding stays within ε.
    ``seed`` is ``None`` (the library default seed), an integer ≥ 0, or
    a :class:`numpy.random.Generator`, which the partitioner advances.
    """

    epsilon: float = 0.03
    seed: int | None = None
    coarsen_to: int = 120
    ninitial: int = 4
    fm_passes: int = 4
    max_net_size: int = 200
    kway_passes: int = 2
    """Direct K-way greedy polish passes applied after recursive
    bisection (0 disables)."""

    def __post_init__(self) -> None:
        if not (
            isinstance(self.epsilon, numbers.Real)
            and math.isfinite(self.epsilon)
            and self.epsilon >= 0
        ):
            raise ConfigError(
                f"epsilon must be finite and nonnegative, got {self.epsilon!r}"
            )
        seed = self.seed
        if not (
            seed is None
            or isinstance(seed, np.random.Generator)
            or (
                isinstance(seed, numbers.Integral)
                and not isinstance(seed, bool)
                and seed >= 0
            )
        ):
            raise ConfigError(
                f"seed must be None, an integer >= 0 or a numpy Generator, got {seed!r}"
            )
        if self.coarsen_to < 2:
            raise ConfigError("coarsen_to must be at least 2")
        if self.ninitial < 1:
            raise ConfigError("ninitial must be at least 1")
        if self.fm_passes < 0:
            raise ConfigError("fm_passes must be nonnegative")
        if self.kway_passes < 0:
            raise ConfigError("kway_passes must be nonnegative")
        if self.max_net_size < 2:
            raise ConfigError(
                "max_net_size must be at least 2 (smaller values leave no "
                "net to coarsen on)"
            )


def partition_kway(
    hg: Hypergraph,
    nparts: int,
    config: PartitionConfig | None = None,
) -> np.ndarray:
    """Partition the vertices of ``hg`` into ``nparts`` balanced parts.

    Returns an ``int64`` part array of length ``hg.nvertices``.

    Under an open :func:`repro.obs.tracing` block every stage is a span
    (``partition.coarsen`` / ``.initial`` / ``.refine`` / ``.kway``),
    ``partition.coarsen`` counts bisections and levels, and
    ``partition.kway`` carries the connectivity-1 cost before and after
    the polish (see :func:`repro.hypergraph.kway.kway_greedy_refine`).

    Raises :class:`~repro.errors.ConfigError` for an ``nparts`` that is
    not an integer of at least 1, and :class:`~repro.errors.ModelError`
    when a net lists a vertex twice (see :func:`_check_distinct_pins`).
    """
    if not isinstance(nparts, numbers.Integral) or isinstance(nparts, bool):
        raise ConfigError(f"nparts must be an integer, got {nparts!r}")
    nparts = int(nparts)
    if nparts < 1:
        raise ConfigError("nparts must be at least 1")
    _check_distinct_pins(hg)
    config = config or PartitionConfig()
    rng = as_generator(config.seed)
    depth = max(1, int(np.ceil(np.log2(nparts)))) if nparts > 1 else 1
    eps_level = (1.0 + config.epsilon) ** (1.0 / depth) - 1.0
    if resolve_backend() == "native":
        words = pcg64_words(rng)
        if words is not None:
            return _partition_native(hg, nparts, eps_level, config, rng, words)
    part = np.zeros(hg.nvertices, dtype=np.int64)
    _recurse(hg, np.arange(hg.nvertices), nparts, 0, part, eps_level, config, rng)
    if nparts > 1 and config.kway_passes > 0:
        from repro.hypergraph.kway import kway_greedy_refine

        with obs.span("partition.kway"):
            part = kway_greedy_refine(
                hg, part, nparts, epsilon=config.epsilon, max_passes=config.kway_passes
            )
    return part


def _partition_native(
    hg: Hypergraph,
    nparts: int,
    eps_level: float,
    config: PartitionConfig,
    rng: np.random.Generator,
    words: np.ndarray,
) -> np.ndarray:
    """:func:`partition_kway` as one native call; ``words`` is ``rng``'s
    PCG64 state, written back afterwards."""
    events = event_log(
        native_ops.kway_event_rows(hg.nvertices, nparts, config.ninitial, MAX_LEVELS)
    )
    part, nevents = native_ops.partition_kway(
        get_kernels(), xpins=hg.xpins, pins=hg.pins, xnets=hg.xnets, nets=hg.nets,
        vweights=hg.vweights, ncosts=hg.ncosts, nparts=nparts, eps_level=eps_level,
        epsilon=config.epsilon, coarsen_to=config.coarsen_to, ninitial=config.ninitial,
        fm_passes=config.fm_passes, max_net_size=config.max_net_size,
        kway_passes=config.kway_passes, max_levels=MAX_LEVELS,
        stall_fraction=_STALL_FRACTION, hash_mask=coarsen._HASH_MASK,
        rng_state=words, events=events, nthreads=partition_threads(),
    )
    set_pcg64_words(rng, words)
    graft_stage_events(events, nevents)
    return part


def _check_distinct_pins(hg: Hypergraph) -> None:
    """Reject a net that lists one vertex twice.

    Such a net double-counts the vertex in every pin count, and the
    refinement loops update pin counts per (net, vertex) pair, so the
    NumPy and native backends would diverge on it.  Checked once per
    :func:`partition_kway` call: coarsening de-duplicates the pins of
    the nets it contracts, and :func:`_split_side` keeps each pin once.
    """
    # A stable sort of the net-major pin list gives every vertex its
    # nets in ascending order, so a repeated pin is a net that follows
    # itself within one vertex's range.
    nets, owner = hg.nets, hg.vert_of_pin
    repeated = np.flatnonzero((nets[1:] == nets[:-1]) & (owner[1:] == owner[:-1]))
    if repeated.size:
        i = int(repeated[0])
        raise ModelError(
            f"net {int(nets[i])} lists vertex {int(owner[i])} more than once; "
            "each net must list its vertices once"
        )


def _recurse(
    hg: Hypergraph,
    vertex_ids: np.ndarray,
    nparts: int,
    offset: int,
    out: np.ndarray,
    eps_level: float,
    config: PartitionConfig,
    rng: np.random.Generator,
) -> None:
    if nparts == 1 or hg.nvertices == 0:
        out[vertex_ids] = offset
        return
    k0 = (nparts + 1) // 2
    k1 = nparts - k0
    total = hg.total_weight().astype(np.float64)
    t0 = total * (k0 / nparts)
    t1 = total - t0
    part, _ = multilevel_bisect(
        hg,
        (t0, t1),
        eps_level,
        rng,
        coarsen_to=max(config.coarsen_to, 8 * nparts),
        ninitial=config.ninitial,
        fm_passes=config.fm_passes,
        max_net_size=config.max_net_size,
    )
    rng0, rng1 = spawn(rng, 2)
    for side, kk, off, side_rng in ((0, k0, offset, rng0), (1, k1, offset + k0, rng1)):
        ids = np.flatnonzero(part == side)
        if kk == 1 or ids.size == 0:
            out[vertex_ids[ids]] = off
            continue
        sub = _split_side(hg, part, side)
        _recurse(sub, vertex_ids[ids], kk, off, out, eps_level, config, side_rng)


def _split_side(hg: Hypergraph, part: np.ndarray, side: int) -> Hypergraph:
    """Sub-hypergraph induced on one side of a bisection (cut-net split).

    A cut net survives on each side restricted to that side's pins;
    nets left with fewer than two pins are dropped.
    """
    keep = np.flatnonzero(part == side)
    vmap = np.full(hg.nvertices, -1, dtype=np.int64)
    vmap[keep] = np.arange(keep.size)
    pin_mask = part[hg.pins] == side
    kept_pins = vmap[hg.pins[pin_mask]]
    kept_nets = hg.net_of_pin[pin_mask]
    per_net = np.bincount(kept_nets, minlength=hg.nnets)
    live = per_net >= 2
    # ``net_of_pin`` is nondecreasing (pins are stored net by net) and
    # the masks keep that order, so the surviving pins are already
    # grouped by their renumbered net: no sort is needed.
    new_pins = kept_pins[live[kept_nets]]
    counts = per_net[live]
    xpins = np.zeros(int(live.sum()) + 1, dtype=np.int64)
    np.cumsum(counts, out=xpins[1:])
    return Hypergraph(
        xpins=xpins,
        pins=new_pins,
        vweights=hg.vweights[keep],
        ncosts=hg.ncosts[live],
    )


# ----------------------------------------------------------------------
# Quality metrics
# ----------------------------------------------------------------------


def net_connectivities(hg: Hypergraph, part: np.ndarray) -> np.ndarray:
    """λ_e: number of distinct parts touching each net (0 for empty nets)."""
    part = np.asarray(part, dtype=np.int64)
    if hg.pins.size == 0:
        return np.zeros(hg.nnets, dtype=np.int64)
    nparts = int(part.max()) + 1 if part.size else 1
    groups, counts = grouped_distinct_counts(hg.net_of_pin, part[hg.pins], nparts)
    lam = np.zeros(hg.nnets, dtype=np.int64)
    lam[groups] = counts
    return lam


def connectivity_minus_one(hg: Hypergraph, part: np.ndarray) -> int:
    """``Σ_e cost(e) · (λ_e − 1)`` over nets touched by ≥ 1 part."""
    return _lambda_cost(net_connectivities(hg, part), hg.ncosts)


def _lambda_cost(lam: np.ndarray, ncosts: np.ndarray) -> int:
    """The connectivity-1 cost of per-net connectivities ``lam``."""
    touched = lam > 0
    return int((ncosts[touched] * (lam[touched] - 1)).sum())


def cutnet_cost(hg: Hypergraph, part: np.ndarray) -> int:
    """``Σ_e cost(e)`` over nets spanning ≥ 2 parts."""
    lam = net_connectivities(hg, part)
    return int(hg.ncosts[lam > 1].sum())


def imbalance(hg: Hypergraph, part: np.ndarray, nparts: int) -> float:
    """Worst-constraint load imbalance ``max_k W_k / W_avg − 1``."""
    part = np.asarray(part, dtype=np.int64)
    pw = np.zeros((nparts, hg.nconstraints), dtype=np.float64)
    np.add.at(pw, part, hg.vweights.astype(np.float64))
    avg = pw.sum(axis=0) / nparts
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(avg > 0, pw.max(axis=0) / avg, 1.0)
    return float(rel.max() - 1.0)
