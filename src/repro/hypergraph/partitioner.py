"""K-way hypergraph partitioning by recursive bisection, run in C.

Cut nets are *split* between the two sides of every bisection, so the
sum of the bisection cut-net costs telescopes into the K-way
connectivity-1 cost — the metric that equals SpMV communication volume
under the models of :mod:`repro.hypergraph.models`.  This is the same
strategy PaToH applies for the connectivity metric.

:func:`partition_kway` is one call of ``kernels.c:repro_partition_kway``:
every bisection's V-cycle (:mod:`repro.hypergraph.bisect`), the side
splits and a final direct K-way polish, drawing NumPy's PCG64 streams
bit for bit.  A bisection into ``k`` parts gives side 0 ``⌈k/2⌉`` of
them and its share of the weight; each side then recurses on its own
stream, spawned from the parent's, over the sub-hypergraph that keeps
each cut net's pins on that side.  The two sides of a split share
nothing, so the call runs them on separate threads, up to
:func:`repro.jobs.partition_threads`; the parts do not depend on the
thread count.

The polish, like PaToH's and kMetis's post-pass, moves boundary
vertices greedily to their best part when the connectivity-1 gain is
strictly positive and the destination stays within the balance limit,
until a pass applies no move; so it never raises the cost.  It keeps
each net's parts as a set, in O(pins) memory at any K.  Under an open
trace the kernels log their stages and the ``partition.*`` spans are
grafted in (:func:`repro.hypergraph.bisect.graft_stage_events`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, ModelError
from repro.hypergraph import bisect
from repro.hypergraph.hypergraph import Hypergraph
from repro.jobs import partition_threads
from repro.kernels import grouped_distinct_counts
from repro.native import ops as native_ops
from repro.native import require_kernels
from repro.rng import as_generator, set_pcg64_words

__all__ = [
    "PartitionConfig",
    "partition_kway",
    "connectivity_minus_one",
    "cutnet_cost",
    "imbalance",
    "net_connectivities",
]


# The counts the C drivers take as int64.
_COUNTS = ("coarsen_to", "ninitial", "fm_passes", "max_net_size", "kway_passes")
_INT64_MAX = 2**63 - 1


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
        for name in _COUNTS:
            value = getattr(self, name)
            if not (
                isinstance(value, numbers.Integral)
                and not isinstance(value, bool)
                and value <= _INT64_MAX
            ):
                raise ConfigError(
                    f"{name} must be an integer that fits in int64, got {value!r}"
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
    the polish as ``partition.cut_before_kway`` /
    ``partition.cut_after_kway``.

    Raises :class:`~repro.errors.ConfigError` for an ``nparts`` that is
    not an integer of at least 1, for a seed generator on a bit
    generator other than PCG64 and when the native kernels are
    unavailable, and :class:`~repro.errors.ModelError` when a net lists
    a vertex twice (see :func:`_check_distinct_pins`).
    """
    if not isinstance(nparts, numbers.Integral) or isinstance(nparts, bool):
        raise ConfigError(f"nparts must be an integer, got {nparts!r}")
    nparts = int(nparts)
    if nparts < 1:
        raise ConfigError("nparts must be at least 1")
    _check_distinct_pins(hg)
    config = config or PartitionConfig()
    lib = require_kernels()
    rng = as_generator(config.seed)
    words = bisect.stream_words(rng)
    depth = max(1, int(np.ceil(np.log2(nparts)))) if nparts > 1 else 1
    eps_level = (1.0 + config.epsilon) ** (1.0 / depth) - 1.0
    events = bisect.event_log(
        native_ops.kway_event_rows(hg.nvertices, nparts, config.ninitial, bisect.MAX_LEVELS)
    )
    part, nevents = native_ops.partition_kway(
        lib, xpins=hg.xpins, pins=hg.pins, xnets=hg.xnets, nets=hg.nets,
        vweights=hg.vweights, ncosts=hg.ncosts, nparts=nparts, eps_level=eps_level,
        epsilon=config.epsilon, coarsen_to=config.coarsen_to, ninitial=config.ninitial,
        fm_passes=config.fm_passes, max_net_size=config.max_net_size,
        kway_passes=config.kway_passes, max_levels=bisect.MAX_LEVELS,
        stall_fraction=bisect._STALL_FRACTION, hash_mask=bisect._HASH_MASK,
        rng_state=words, events=events, nthreads=partition_threads(),
    )
    set_pcg64_words(rng, words)
    bisect.graft_stage_events(events, nevents)
    return part


def _check_distinct_pins(hg: Hypergraph) -> None:
    """Reject a net that lists one vertex twice.

    Such a net double-counts the vertex in every pin count, which the
    refinement loops update per (net, vertex) pair.  Checked once per
    :func:`partition_kway` call: coarsening de-duplicates the pins of
    the nets it contracts, and a side split keeps each pin once.
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
