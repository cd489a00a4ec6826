"""Frozen results of the hypergraph partitioner on its reference corpus.

The partitioner is one C driver: ``partition_kway`` is one call of
``kernels.c:repro_partition_kway`` and ``multilevel_bisect`` one call
of ``kernels.c:repro_bisect``.  Its former bit-for-bit reference, a
NumPy implementation of every stage under a Python recursion, was
deleted after recording what it returned on every input that a
cross-backend test ran through it.  ``fixtures/partitioner_reference.json``
holds one entry per case:

- ``parts``: the sha256 of the part (or side) array, covering its dtype
  and shape as well as its bytes;
- ``cut``: the connectivity-1 cost of a K-way partition, or the cut the
  V-cycle reports for a bisection;
- ``rng``: the caller's PCG64 generator after the call, as
  ``[state, inc, has_uint32, uinteger]``;
- for traced cases, ``counters`` (the ``partition.*`` counter totals)
  and ``spans`` (``[parent, name, count]`` of every ``partition.*``
  span, ``""`` for a root).

A case that runs several calls (a K-way partition, then a bisection,
possibly on one generator) records one such entry per call.  The
thread count never changes a result; :func:`check` runs the K-way
cases at each count it is given.

Run as a script to check the fixture at one and two threads (or the
counts given with ``--threads``), or to rewrite it, only for a
deliberate, reviewed change of the partitions::

    PYTHONPATH=src python -m tests.golden_partitioner
    PYTHONPATH=src python -m tests.golden_partitioner --threads 1,2,3,4
    PYTHONPATH=src python -m tests.golden_partitioner --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "partitioner_reference.json"

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1, 2**100]


def _families() -> dict[str, Callable]:
    from repro.generators.circuit import banded_with_dense_rows, circuit_like
    from repro.generators.mesh import knn_mesh, poisson2d
    from repro.generators.rmat import rmat

    return {
        "mesh": lambda: poisson2d(16),
        "knn": lambda: knn_mesh(300, 8, dim=2, seed=1),
        "rmat": lambda: rmat(8, edge_factor=6, seed=1),
        "dense-row": lambda: banded_with_dense_rows(300, ndense=3, seed=2),
        "circuit": lambda: circuit_like(300, seed=3),
    }


FAMILIES = _families()
MODELS = ("column-net", "fine-grain")


@functools.lru_cache(maxsize=None)
def model(family: str, ncon: int, kind: str = "column-net"):
    """The ``kind`` model of a ``FAMILIES`` matrix; ``ncon == 2`` adds a
    second constraint of seeded weights 0-3."""
    from repro.hypergraph import Hypergraph, column_net_model, fine_grain_model

    a = FAMILIES[family]()
    hg = column_net_model(a) if kind == "column-net" else fine_grain_model(a).hypergraph
    if ncon == 2:
        extra = np.random.default_rng(5).integers(0, 4, hg.nvertices)
        hg = Hypergraph(
            hg.xpins, hg.pins, np.column_stack([hg.vweights[:, 0], extra]), hg.ncosts
        )
    return hg


def paired(hg):
    """``hg`` with vertices ``2i`` and ``2i + 1`` merged: a contracted
    level with summed weights, repeated pins dropped and nets left with
    one pin removed."""
    from repro.hypergraph import Hypergraph

    cmap = np.arange(hg.nvertices) // 2
    n = (hg.nvertices + 1) // 2
    vweights = np.zeros((n, hg.nconstraints), dtype=np.int64)
    np.add.at(vweights, cmap, hg.vweights)
    nets, costs = [], []
    for e in range(hg.nnets):
        pins = np.unique(cmap[hg.pins[hg.xpins[e] : hg.xpins[e + 1]]])
        if pins.size >= 2:
            nets.append(pins.tolist())
            costs.append(int(hg.ncosts[e]))
    return Hypergraph.from_net_lists(
        nets, n, vweights=vweights, ncosts=np.array(costs, dtype=np.int64)
    )


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def _state(rng: np.random.Generator) -> list[int]:
    st = rng.bit_generator.state
    return [st["state"]["state"], st["state"]["inc"], st["has_uint32"], st["uinteger"]]


def _generator(seed) -> np.random.Generator:
    from repro.rng import as_generator

    return seed if isinstance(seed, np.random.Generator) else as_generator(seed)


def _run(fn: Callable, traced: bool):
    """``fn()`` and, when ``traced``, its ``partition.*`` counters and
    span tree."""
    from repro import obs

    if not traced:
        return fn(), {}
    with obs.tracing() as tr:
        out = fn()
    pairs = Counter()
    for sp in tr.walk():
        pairs.update((sp.name, child.name) for child in sp.children)
    pairs.update(("", sp.name) for sp in tr.spans)
    counters = {k: v for k, v in tr.total_counters().items() if k.startswith("partition.")}
    spans = sorted([*key, n] for key, n in pairs.items() if key[1].startswith("partition."))
    return out, {"counters": counters, "spans": spans}


def kway(hg, k: int, seed, *, traced: bool = False, **cfg) -> dict:
    """One ``partition_kway`` call with ``PartitionConfig(seed=rng, **cfg)``."""
    from repro.hypergraph import PartitionConfig, connectivity_minus_one, partition_kway

    rng = _generator(seed)
    part, extra = _run(lambda: partition_kway(hg, k, PartitionConfig(seed=rng, **cfg)), traced)
    cut = connectivity_minus_one(hg, part)
    return {"parts": digest(part), "cut": cut, "rng": _state(rng), **extra}


def bisect(hg, targets, seed, epsilon: float = 0.05, *, traced: bool = True, **cfg) -> dict:
    """One ``multilevel_bisect`` call; a float ``targets`` is side 0's
    share of the total weight."""
    if not isinstance(targets, tuple):
        t = hg.total_weight().astype(np.float64)
        targets = (t * targets, t * (1 - targets))
    rng = _generator(seed)
    (part, cut), extra = _run(lambda: _bisect_call(hg, targets, epsilon, rng, cfg), traced)
    return {"parts": digest(part), "cut": int(cut), "rng": _state(rng), **extra}


def _bisect_call(hg, targets, epsilon, rng, cfg):
    from repro.hypergraph import PartitionConfig
    from repro.hypergraph.bisect import multilevel_bisect

    return multilevel_bisect(hg, targets, epsilon, rng, PartitionConfig(**cfg))


@contextmanager
def masked_hashes():
    """Every content hash of the contraction masked to 0: the coarse net
    order rests on the index tie-break and each merge on the exact pin
    comparison alone."""
    from repro.hypergraph import bisect as home

    saved = home._HASH_MASK
    home._HASH_MASK = 0
    try:
        yield
    finally:
        home._HASH_MASK = saved


def _masked(fn: Callable) -> Callable:
    def run():
        with masked_hashes():
            return fn()

    return run


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def net_order_case():
    """Vertex 0 shares nets of 3, 4 and 7 pins with vertex 1 and of 7, 4
    and 3 pins with vertex 2; padding vertices weigh 3.  Returns the
    hypergraph and the targets ``(2, total - 2)``."""
    from repro.hypergraph import Hypergraph

    nets, pad = [], 3
    for u, sizes in ((1, (3, 4, 7)), (2, (7, 4, 3))):
        for size in sizes:
            nets.append([0, u, *range(pad, pad + size - 2)])
            pad += size - 2
    w = np.full(pad, 3, dtype=np.int64)
    w[:3] = 1
    hg = Hypergraph.from_net_lists(nets, pad, vweights=w)
    t = hg.total_weight().astype(np.float64)
    return hg, (np.array([2.0]), t - 2.0)


def crafted() -> dict[str, object]:
    """Hypergraphs built net by net: crafted contractions (every net
    merging, nets collapsing to one pin, zero-cost merges, empty ones),
    a same-key chain, identical nets, the five-vertex thread case and
    the unscorable one."""
    from repro.hypergraph import Hypergraph

    H = Hypergraph.from_net_lists
    return {
        "all-merge": H([[0, 2], [1, 3], [3, 0], [2, 1]], 4, ncosts=np.array([1, 2, 3, 4])),
        "collapse": H([[0, 1], [2, 3, 2], [4], [1, 4]], 5),
        "zero-cost": H([[0, 1], [1, 0], [1, 2]], 3, ncosts=np.array([0, 0, 5])),
        "no-nets": H([], 5),
        "one-pin-nets": H([[0], [1]], 3),
        "no-vertices": H([], 0),
        "chain": H([[0, 1], [0, 2], [1, 0], [0, 1]], 3, ncosts=np.array([1, 2, 4, 8])),
        "identical": H([[0, 1, 2], [0, 1, 2], [3, 4]], 6, ncosts=np.array([2, 5, 1])),
        "five": H([[0, 1, 2], [2, 3], [3, 4], [0, 4]], 5),
        "unscorable": H([list(range(i, i + 12)) for i in range(0, 60, 4)], 72),
    }


@functools.lru_cache(maxsize=None)
def zero_limit_models():
    from repro.hypergraph import Hypergraph

    hg = model("mesh", 1)
    zero = Hypergraph(
        hg.xpins, hg.pins,
        np.column_stack([hg.vweights[:, 0], np.zeros(hg.nvertices, dtype=np.int64)]),
        hg.ncosts,
    )
    two = model("mesh", 2)
    t = two.total_weight().astype(np.float64)
    return zero, two, (np.array([t[0] / 2, 0.0]), np.array([t[0] / 2, t[1]]))


@functools.lru_cache(maxsize=None)
def zero_cost_models():
    from repro.hypergraph import Hypergraph

    base = model("circuit", 2)
    costs = np.random.default_rng(2).integers(0, 3, base.nnets)
    some = Hypergraph(base.xpins, base.pins, base.vweights, costs)
    free = Hypergraph(base.xpins, base.pins, base.vweights, np.zeros(base.nnets, dtype=np.int64))
    return some, free


@functools.lru_cache(maxsize=None)
def sanitize_models():
    from repro.generators.circuit import circuit_like
    from repro.hypergraph import Hypergraph, column_net_model, fine_grain_model

    hg = column_net_model(circuit_like(200, seed=5))
    extra = np.random.default_rng(1).integers(0, 3, hg.nvertices)
    hg = Hypergraph(hg.xpins, hg.pins, np.column_stack([hg.vweights[:, 0], extra]), hg.ncosts)
    return hg, fine_grain_model(circuit_like(120, seed=6)).hypergraph


def _kway_then_bisect(hg, k: int, kway_seed, bisect_seed, frac, epsilon, *,
                      kway_cfg=None, bisect_cfg=None) -> dict:
    """A K-way partition and one bisection; pass one generator as both
    seeds to run them on one stream."""
    return {
        "kway": kway(hg, k, kway_seed, **(kway_cfg or {})),
        "bisect": bisect(hg, frac, bisect_seed, epsilon, traced=False, **(bisect_cfg or {})),
    }


@functools.lru_cache(maxsize=None)
def _poisson_model(n: int):
    from repro.generators.mesh import poisson2d
    from repro.hypergraph import column_net_model

    return column_net_model(poisson2d(n))


def _caller_state_case(buffered: bool) -> dict:
    rng = np.random.default_rng(11)
    if buffered:
        rng.random(dtype=np.float32)  # one 32-bit draw, its twin buffered
    return _kway_then_bisect(model("circuit", 2), 5, rng, rng, 0.5, 0.03)


def seed_sweep() -> list[int]:
    """The driver's seed sweep: the edge seeds and 200 drawn ones."""
    return EDGE_SEEDS + np.random.default_rng(2026).integers(0, 2**63 - 1, 200).tolist()


def cases() -> dict[str, Callable[[], dict]]:
    """Every case, by name; each value runs the case's calls (inputs are
    built on first use)."""
    out: dict[str, Callable[[], dict]] = {}
    fams = sorted(FAMILIES)
    c = crafted()

    # FM at the per-level tolerance of K, and the K-way polish at K.
    for f in fams:
        for n in (1, 2):
            for k in (2, 8, 64):
                e = 1.03 ** (1.0 / np.log2(k)) - 1.0
                out[f"refine_loops/{f}-{n}/bisect-k{k}"] = (
                    lambda f=f, n=n, k=k, e=e: bisect(model(f, n), 0.5, k, e)
                )
                out[f"refine_loops/{f}-{n}/kway-k{k}"] = (
                    lambda f=f, n=n, k=k: kway(model(f, n), k, 17 + k, epsilon=0.1)
                )
    for n in (1, 2):
        out[f"kway_k8/knn-{n}"] = lambda n=n: kway(model("knn", n), 8, 4)

    # Zero limits: a constraint of zero total weight, and a zero target
    # on a weighted constraint.
    for s in range(3):
        out[f"zero_limit/zero-weight/bisect-0.5-s{s}"] = (
            lambda s=s: bisect(zero_limit_models()[0], 0.5, s)
        )
        out[f"zero_limit/zero-weight/bisect-0.3-flat-s{s}"] = lambda s=s: bisect(
            zero_limit_models()[0], 0.3, s, coarsen_to=zero_limit_models()[0].nvertices
        )
        out[f"zero_limit/zero-target/s{s}"] = (
            lambda s=s: bisect(zero_limit_models()[1], zero_limit_models()[2], s)
        )
    out["zero_limit/zero-weight/kway-k8"] = lambda: kway(zero_limit_models()[0], 8, 3)

    out["fine_grain_k64/rmat"] = lambda: kway(model("rmat", 1, "fine-grain"), 64, 6)
    out["k1024/poisson2d-48"] = lambda: kway(_poisson_model(48), 1024, 8)

    # Any thread count: K = 3 splits off a one-part side, K = 1024 leaves
    # sides empty, K = 5 and 7 split unevenly.
    for f in fams:
        for m in MODELS:
            for k in (3, 5, 7, 64, 1024):
                out[f"threads/{f}-{m}/k{k}"] = lambda f=f, m=m, k=k: kway(model(f, 1, m), k, k)
    for k in (2, 3, 16):
        out[f"threads/five-vertices/k{k}"] = lambda k=k: kway(c["five"], k, 1)

    # The V-cycle's front half: coarsening to 40 vertices, the initial
    # trials and projection, no FM passes.
    front = {"coarsen_to": 40, "fm_passes": 0}
    for f in fams:
        for m in MODELS:
            for n in (1, 2):
                for fr in (0.5, 0.3):
                    out[f"front_half/{f}-{m}-{n}/{fr}"] = (
                        lambda f=f, m=m, n=n, fr=fr: bisect(model(f, n, m), fr, 7, **front)
                    )
    for s in range(4):
        for fr in (0.5, 0.3):
            out[f"tie_heavy_mesh/s{s}/{fr}"] = (
                lambda s=s, fr=fr: bisect(_poisson_model(24), fr, s, **front)
            )
    for name, i in (("some-free", 0), ("free", 1)):
        for fr in (0.5, 0.3):
            out[f"zero_cost/{name}/front-{fr}"] = (
                lambda i=i, fr=fr: bisect(zero_cost_models()[i], fr, 5, **front)
            )
    out["zero_cost/some-free/0.3"] = lambda: bisect(zero_cost_models()[0], 0.3, 5)
    out["zero_cost/free/0.5"] = lambda: bisect(zero_cost_models()[1], 0.5, 5)
    for s in range(12):
        out[f"net_order/s{s}"] = lambda s=s: bisect(
            *net_order_case(), s, 0.0,
            coarsen_to=net_order_case()[0].nvertices, ninitial=1, fm_passes=0,
        )
    for fr in (0.5, 0.3):
        out[f"no_net_scores/{fr}"] = (
            lambda fr=fr: bisect(c["unscorable"], fr, 3, coarsen_to=40, max_net_size=5)
        )
    for f in ("circuit", "mesh", "rmat"):
        for m in MODELS:
            for fr in (0.5, 0.3):
                out[f"colliding_hashes/{f}-{m}/front-{fr}"] = _masked(
                    lambda f=f, m=m, fr=fr: bisect(model(f, 2, m), fr, 9, **front)
                )
            out[f"colliding_hashes/{f}-{m}/0.5"] = _masked(
                lambda f=f, m=m: bisect(model(f, 2, m), 0.5, 9, coarsen_to=40)
            )

    # Crafted contractions, each coarsened down to two vertices.
    for name in ("all-merge", "collapse", "zero-cost", "no-nets", "one-pin-nets",
                 "no-vertices", "identical"):
        for s in range(3):
            out[f"contraction/{name}/s{s}"] = (
                lambda name=name, s=s: bisect(c[name], 0.5, s, coarsen_to=2)
            )
    for s in range(3):
        run = lambda s=s: bisect(c["chain"], 0.5, s, coarsen_to=2)  # noqa: E731
        out[f"adjacent_pairs/masked/s{s}"] = _masked(run)
        out[f"adjacent_pairs/real/s{s}"] = run

    # The FM set-up (fm_passes=0) and one pass, without coarsening, on
    # the model and on a contracted level.
    for f in fams:
        for m in MODELS:
            for n in (1, 2):
                for level in ("fine", "paired"):
                    for fr in (0.5, 0.3):
                        for p in (0, 1):
                            out[f"fm_setup/{f}-{m}-{n}/{level}/{fr}/p{p}"] = functools.partial(
                                _fm_setup_case, f, m, n, level, fr, p
                            )

    # The drivers: a seed sweep, a caller's generator, the traced tree,
    # masked hashes.
    for s in seed_sweep():
        out[f"seeds/{s}"] = lambda s=s: _kway_then_bisect(
            _poisson_model(6), 3, s, s, 0.4, 0.05, kway_cfg={"coarsen_to": 8},
            bisect_cfg={"coarsen_to": 8},
        )
    for buffered in (False, True):
        out[f"caller_state/buffered-{buffered}"] = functools.partial(
            _caller_state_case, buffered
        )
    out["graft/knn-k64"] = lambda: kway(model("knn", 1), 64, 4, traced=True)
    for f in ("circuit", "rmat"):
        out[f"driver_hashes/{f}"] = _masked(
            lambda f=f: _kway_then_bisect(model(f, 2), 4, 9, 9, 0.5, 0.05)
        )

    # The sanitizer tier's calls: two-constraint K-way partitions, traced,
    # one with masked hashes, and fine-grain bisections.
    for k in (1, 8, 64):
        out[f"sanitize/kway-k{k}"] = lambda k=k: kway(sanitize_models()[0], k, 2, traced=True)
    out["sanitize/kway-k8-masked"] = _masked(lambda: kway(sanitize_models()[0], 8, 3))
    for fr in (0.4, 0.5):
        for p in (0, 4):
            out[f"sanitize/bisect-{fr}-p{p}"] = lambda fr=fr, p=p: bisect(
                sanitize_models()[1], fr, 3, coarsen_to=40, ninitial=2, fm_passes=p,
                traced=False,
            )
    out["sanitize/bisect-traced"] = lambda: bisect(sanitize_models()[1], 0.5, 4)
    return out


def _fm_setup_case(family, kind, ncon, level, frac, passes) -> dict:
    hg = model(family, ncon, kind)
    if level == "paired":
        hg = _paired_model(family, ncon, kind)
    return bisect(hg, frac, 13, coarsen_to=hg.nvertices, ninitial=2, fm_passes=passes)


@functools.lru_cache(maxsize=None)
def _paired_model(family, ncon, kind):
    return paired(model(family, ncon, kind))




# ----------------------------------------------------------------------
# Check and write
# ----------------------------------------------------------------------


@contextmanager
def partition_threads(n: int | None):
    """The native driver's thread count set to ``n`` (None: the
    process's own), so threads run on any host, a 1-CPU one included."""
    from repro.jobs import set_partition_threads

    set_partition_threads(n)
    try:
        yield
    finally:
        set_partition_threads(None)


@functools.lru_cache(maxsize=1)
def reference() -> dict:
    """The committed fixture."""
    return json.loads(FIXTURE.read_text())


def _jsonable(entry: dict) -> dict:
    return json.loads(json.dumps(entry))


def snapshot(prefix: str = "") -> dict:
    """The fixture content for the cases named ``prefix...``, computed
    from the current code."""
    return {name: _jsonable(run()) for name, run in cases().items() if name.startswith(prefix)}


def check(prefix: str = "", threads=(None,)) -> list[str]:
    """Mismatches between the cases named ``prefix...`` and the
    fixture, at each thread count in ``threads`` (empty when all
    match).  An unknown prefix is a mismatch too."""
    want = reference()
    selected = {n: run for n, run in cases().items() if n.startswith(prefix)}
    problems = [] if selected else [f"no case is named {prefix}..."]
    problems += [f"{n}: not in {FIXTURE.name}" for n in selected if n not in want]
    for nthreads in threads:
        with partition_threads(nthreads):
            for name, run in selected.items():
                if name in want and _jsonable(run()) != want[name]:
                    problems.append(f"{name}: differs from {FIXTURE.name} at {nthreads} threads")
    return problems


if __name__ == "__main__":
    args = sys.argv[1:]
    if "--write" in args:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        counts = (1, 2)
        if "--threads" in args:
            counts = tuple(int(n) for n in args[args.index("--threads") + 1].split(","))
        found = check(threads=counts)
        print("\n".join(found) or f"partitioner reference matches at threads {counts}")
        raise SystemExit(1 if found else 0)
