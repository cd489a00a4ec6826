"""Method registry of the :class:`repro.engine.PartitionEngine`.

Each entry maps a canonical method name to a builder
``build(engine, nparts, config, opts) -> SpMVPartition``.  Builders
compose the library's partitioning stages — vector partitioning →
nonzero partitioning — and pull every shareable intermediate (base 1D
vector partitions, :class:`~repro.sparse.blocks.BlockStructure`, batched
block-DM results) from the engine's memo store, so running several
methods on one matrix never recomputes block analytics.

Aliases cover the CLI's historical spellings (``1d``, ``2d``,
``s2d`` …) so every entry point resolves through one table.
"""

from __future__ import annotations

from repro.core.s2d import choices_from_block_dm, s2d_heuristic, s2d_optimal
from repro.core.s2d_bounded import make_s2d_bounded
from repro.core.s2d_ext import s2d_heuristic_balanced
from repro.core.s2d_mg import partition_s2d_medium_grain
from repro.errors import ConfigError
from repro.partition.boman import partition_1d_boman
from repro.partition.checkerboard import partition_checkerboard
from repro.partition.finegrain import partition_2d_finegrain
from repro.partition.mondriaan import partition_mondriaan
from repro.partition.oned import partition_1d_rowwise

__all__ = ["METHODS", "ALIASES", "available_methods", "register_method", "resolve_method"]

METHODS: dict = {}

ALIASES = {
    "1d": "1d-rowwise",
    "2d": "finegrain",
    "2d-orb": "mondriaan",
    "2d-b": "checkerboard",
    "1d-b": "1d-boman",
    "s2d": "s2d-heuristic",
    "s2d-opt": "s2d-optimal",
    "s2d-bal": "s2d-balanced",
    "s2d-b": "s2d-bounded",
    "s2d-mg": "medium-grain",
}


def register_method(name: str):
    """Decorator adding a builder under ``name`` (idempotent overwrite)."""

    def deco(fn):
        METHODS[name] = fn
        return fn

    return deco


def resolve_method(name: str) -> str:
    """Canonical method name for ``name`` (resolving aliases)."""
    name = name.lower()
    name = ALIASES.get(name, name)
    if name not in METHODS:
        raise ConfigError(
            f"unknown partitioning method {name!r}; "
            f"known: {', '.join(available_methods())}"
        )
    return name


def available_methods() -> list[str]:
    """Canonical method names, sorted."""
    return sorted(METHODS)


# ----------------------------------------------------------------------
# Direct builders (vector + nonzero partition in one construction)
# ----------------------------------------------------------------------


@register_method("1d-rowwise")
def _build_1d_rowwise(engine, nparts, config, opts):
    return partition_1d_rowwise(engine.matrix, nparts, config)


@register_method("finegrain")
def _build_finegrain(engine, nparts, config, opts):
    return partition_2d_finegrain(engine.matrix, nparts, config)


@register_method("mondriaan")
def _build_mondriaan(engine, nparts, config, opts):
    return partition_mondriaan(engine.matrix, nparts, config)


@register_method("checkerboard")
def _build_checkerboard(engine, nparts, config, opts):
    return partition_checkerboard(
        engine.matrix, nparts, config, shape=opts.get("shape")
    )


@register_method("medium-grain")
def _build_medium_grain(engine, nparts, config, opts):
    return partition_s2d_medium_grain(
        engine.matrix, nparts, config, to_row=opts.get("to_row")
    )


# ----------------------------------------------------------------------
# Derived builders (compose a cached base plan with a second stage)
# ----------------------------------------------------------------------


def _s2d_vectors(engine, nparts, config, opts):
    """The vector partition an s2D method refines.

    ``opts['vectors']`` overrides; otherwise the memoized 1D-rowwise
    plan with the same partitioner config supplies it — exactly the
    paper's setup (s2D reuses the 1D hypergraph vector partition), and
    the reason table runs share one hypergraph call per (matrix, K).
    """
    vectors = opts.get("vectors")
    if vectors is not None:
        return vectors
    return engine.plan("1d-rowwise", nparts, config=config).partition.vectors


@register_method("1d-boman")
def _build_1d_boman(engine, nparts, config, opts):
    base = opts.get("base")
    if base is None:
        base = engine.plan("1d-rowwise", nparts, config=config).partition
    return partition_1d_boman(
        engine.matrix, nparts, config, shape=opts.get("shape"), base=base
    )


@register_method("s2d-optimal")
def _build_s2d_optimal(engine, nparts, config, opts):
    vectors = _s2d_vectors(engine, nparts, config, opts)
    return s2d_optimal(
        engine.matrix,
        x_part=vectors,
        nparts=nparts,
        block_structure=engine.block_structure(vectors),
        choices=choices_from_block_dm(engine.block_dm(vectors)),
    )


@register_method("s2d-heuristic")
def _build_s2d_heuristic(engine, nparts, config, opts):
    vectors = _s2d_vectors(engine, nparts, config, opts)
    return s2d_heuristic(
        engine.matrix,
        x_part=vectors,
        nparts=nparts,
        w_lim=opts.get("w_lim"),
        epsilon=opts.get("epsilon", engine.epsilon),
        block_structure=engine.block_structure(vectors),
        choices=choices_from_block_dm(engine.block_dm(vectors)),
    )


@register_method("s2d-balanced")
def _build_s2d_balanced(engine, nparts, config, opts):
    vectors = _s2d_vectors(engine, nparts, config, opts)
    return s2d_heuristic_balanced(
        engine.matrix,
        x_part=vectors,
        nparts=nparts,
        w_lim=opts.get("w_lim"),
        epsilon=opts.get("epsilon", engine.epsilon),
        block_structure=engine.block_structure(vectors),
        choices=choices_from_block_dm(engine.block_dm(vectors)),
    )


@register_method("s2d-bounded")
def _build_s2d_bounded(engine, nparts, config, opts):
    passthrough = {
        k: v for k, v in opts.items() if k in ("vectors", "w_lim", "epsilon")
    }
    base = engine.plan("s2d-heuristic", nparts, config=config, **passthrough)
    return make_s2d_bounded(base.partition, shape=opts.get("shape"))
