"""Layer attribution for the traced pass.

Two pieces:

- :func:`hooks` wraps public entry points of the program in
  ``obs.span("bench.<module>.<name>")`` by patching module (or class)
  attributes, and restores them on exit.  The program has no spans of
  its own for block analytics, block DM, s2D construction or the
  registry's model builders yet; the wrappers give those layers a
  boundary from outside.  A target that no longer exists is reported
  as missing instead of failing the run.
- :func:`fold` turns a span forest into per-layer *self* time: a span's
  duration minus the part of it its children cover, charged to the
  span's layer.  Spans with no layer of their own (``simulate.*``
  phases, ``native.*``, artifact events) inherit their parent's, so
  the simulator phases that ``compile_plan`` runs count as compile
  time and those under ``run_partition`` as simulate time.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager

from repro import obs

#: Wrapped entry points: module -> attribute paths inside it.
HOOK_TARGETS: dict[str, tuple[str, ...]] = {
    "repro.engine.engine": (
        "BlockStructure",
        "batched_block_dm",
        "run_partition",
        "summarize",
        "compile_plan",
    ),
    "repro.engine.registry": (
        "partition_1d_rowwise",
        "partition_2d_finegrain",
        "partition_checkerboard",
        "partition_1d_boman",
        "partition_s2d_medium_grain",
        "choices_from_block_dm",
        "s2d_heuristic",
        "make_s2d_bounded",
    ),
    "repro.sweep.grid": ("MatrixRef.materialize",),
}

#: Span name -> the per-layer metric its self time is charged to.
#: ``bench.generate`` is the solve workloads' own matrix-generation span.
LAYER_OF: dict[str, str] = {
    "partition.coarsen": "hypergraph.coarsen_s",
    "partition.initial": "hypergraph.initial_s",
    "partition.refine": "hypergraph.refine_s",
    "partition.kway": "hypergraph.kway_s",
    "bench.registry.partition_1d_rowwise": "partition.model_s",
    "bench.registry.partition_2d_finegrain": "partition.model_s",
    "bench.registry.partition_checkerboard": "partition.model_s",
    "bench.registry.partition_1d_boman": "partition.model_s",
    "bench.registry.partition_s2d_medium_grain": "partition.model_s",
    "bench.engine.BlockStructure": "sparse.block_structure_s",
    "bench.engine.batched_block_dm": "dm.block_dm_s",
    "bench.registry.choices_from_block_dm": "core.s2d_s",
    "bench.registry.s2d_heuristic": "core.s2d_s",
    "bench.registry.make_s2d_bounded": "core.s2d_bounded_s",
    "bench.engine.run_partition": "simulate.run_s",
    "bench.engine.summarize": "simulate.summarize_s",
    "bench.engine.compile_plan": "runtime.compile_s",
    "bench.grid.MatrixRef.materialize": "generators.matrix_s",
    "bench.generate": "generators.matrix_s",
    "engine.plan": "engine.memo_s",
    "engine.run": "engine.memo_s",
    "engine.compile": "engine.memo_s",
    "plan.apply": "runtime.apply_s",
    "solver.matvec": "runtime.apply_s",
    "solver.conjugate_gradient": "solvers.vector_s",
    "sweep.task": "sweep.self_s",
    "sweep.cell": "sweep.self_s",
}

#: Where self time of spans outside every layer (the benchmark's own
#: root spans) is charged.
UNATTRIBUTED = "unattributed"

HYPERGRAPH = (
    "hypergraph.coarsen_s",
    "hypergraph.initial_s",
    "hypergraph.refine_s",
    "hypergraph.kway_s",
)


def span_name(module: str, attr: str) -> str:
    return f"bench.{module.rsplit('.', 1)[-1]}.{attr}"


def _wrap(name: str, fn):
    def traced(*args, **kwargs):
        with obs.span(name):
            return fn(*args, **kwargs)

    return traced


def _resolve(module, path: str):
    """``(owner, attribute name, raw value)`` of a dotted attribute path,
    or None when any step is missing.  The raw value comes from the
    owner's ``__dict__`` so restoring it puts back exactly what was
    there."""
    *parents, name = path.split(".")
    owner = module
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(name)
    if raw is None or not callable(raw):
        return None
    return owner, name, raw


@contextmanager
def hooks(targets: dict[str, tuple[str, ...]] = HOOK_TARGETS):
    """Wrap every target in a span for the duration of the block.

    Yields the list of targets (``module.path``) that could not be
    wrapped; the caller omits the metrics that depend on them.
    """
    missing: list[str] = []
    patched = []
    try:
        for modname, paths in targets.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                missing.extend(f"{modname}.{p}" for p in paths)
                continue
            for path in paths:
                found = _resolve(module, path)
                if found is None:
                    missing.append(f"{modname}.{path}")
                    continue
                owner, name, raw = found
                setattr(owner, name, _wrap(span_name(modname, path), raw))
                patched.append((owner, name, raw))
        yield missing
    finally:
        for owner, name, raw in reversed(patched):
            setattr(owner, name, raw)


#: Count metrics and the span they count.
COUNTS = {
    "hypergraph.refine_calls": "partition.refine",
    "simulate.runs": "bench.engine.run_partition",
}


def omitted_metrics(missing: list[str]) -> set[str]:
    """Metrics fed by a hook target that could not be wrapped: their
    time would silently move to the caller's layer, so they are left
    out rather than reported low."""
    spans = set()
    for target in missing:
        for modname in HOOK_TARGETS:
            if target.startswith(modname + "."):
                spans.add(span_name(modname, target[len(modname) + 1:]))
    return {LAYER_OF[s] for s in spans if s in LAYER_OF} | {
        metric for metric, s in COUNTS.items() if s in spans
    }


def self_time(span) -> float:
    """``span.dur`` minus the union of its children's intervals,
    clipped to the span's own interval."""
    lo, hi = span.t0, span.t0 + span.dur
    covered = 0.0
    reach = lo
    for child in sorted(span.children, key=lambda c: c.t0):
        start = max(child.t0, reach)
        end = min(child.t0 + child.dur, hi)
        if end > start:
            covered += end - start
            reach = end
    return span.dur - covered


def fold(spans, layer_of: dict[str, str] = LAYER_OF) -> dict[str, float]:
    """Self time per layer over a span forest (see module docstring)."""
    totals: dict[str, float] = defaultdict(float)
    stack = [(sp, UNATTRIBUTED) for sp in spans]
    while stack:
        sp, inherited = stack.pop()
        layer = layer_of.get(sp.name, inherited)
        totals[layer] += self_time(sp)
        stack.extend((child, layer) for child in sp.children)
    return dict(totals)


def spans_named(spans, name: str) -> list:
    return [sp for root in spans for sp in root.walk() if sp.name == name]


def layer_metrics(trace, missing: list[str]) -> dict[str, float]:
    """Per-layer metrics every workload derives from its traced pass.

    Layer self times are totals over the whole pass; a layer the
    workload does not run reads 0.  Metrics fed by a missing hook are
    omitted.
    """
    wall = sum(sp.dur for sp in trace.spans)
    totals = fold(trace.spans)
    metrics = {name: totals.get(name, 0.0) for name in set(LAYER_OF.values())}
    for metric, name in COUNTS.items():
        metrics[metric] = len(spans_named(trace.spans, name))
    hyper = sum(totals.get(name, 0.0) for name in HYPERGRAPH)
    metrics["hypergraph.share"] = hyper / wall if wall else 0.0
    counters = trace.total_counters()
    hits = counters.get("engine.cache_hits", 0)
    lookups = hits + counters.get("engine.cache_misses", 0)
    metrics["engine.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["obs.coverage"] = (wall - totals.get(UNATTRIBUTED, 0.0)) / wall if wall else 0.0
    omitted = omitted_metrics(missing)
    return {name: value for name, value in metrics.items() if name not in omitted}
