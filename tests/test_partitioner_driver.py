"""The recursive-bisection drivers in C against the Python driver.

With the native backend and a PCG64-backed generator,
``partition_kway`` is one call of ``kernels.c:repro_partition_kway``
and ``multilevel_bisect`` one call of ``kernels.c:repro_bisect``; both
port NumPy's random streams.  Every other generator runs the Python
driver over the NumPy stages.  Pinned here:

- over more than 200 seeds, edge seeds included, both backends give the
  same parts and cuts, and a caller's generator ends in the same state
  (also when it starts with a buffered 32-bit draw);
- an MT19937-backed generator runs the Python driver and partitions as
  before the C driver existed, on both backends;
- a traced native run grafts the Python driver's span tree and
  counters; an untraced one passes no event log; at 1-4 threads the
  traced parts, spans (in order) and counters equal the serial run's;
- the drivers read the contraction's hash mask, validate their inputs
  under ``REPRO_NATIVE_DEBUG=1``, refuse arrays of the wrong dtype or
  layout, and report both a failed ``malloc`` and an oversized
  gain-bucket bound as ``MemoryError``.
"""

import copy
import hashlib
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.errors import VerificationError
from repro.generators.mesh import poisson2d
from repro.hypergraph import Hypergraph, PartitionConfig, column_net_model, partition_kway
from repro.hypergraph import coarsen
from repro.hypergraph.bisect import MAX_LEVELS, multilevel_bisect
from repro.native import DEBUG_ENV, get_kernels, ops

from tests.test_partitioner_native import _model, forced_backend, partition_threads

pytestmark = pytest.mark.native

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1, 2**100]


def _both(fn):
    """``fn()`` on the NumPy backend, then on the native one."""
    with forced_backend("numpy"):
        want = fn()
    with forced_backend("native"):
        got = fn()
    return want, got


def _kway_and_bisect(hg: Hypergraph, seed) -> list:
    """A K=3 partition (two V-cycles, the spawn between them and the
    polish) and one bisection from its own generator, with that
    generator's final state."""
    part = partition_kway(hg, 3, PartitionConfig(seed=seed, coarsen_to=8))
    t = hg.total_weight().astype(np.float64)
    rng = np.random.default_rng(seed)
    side, cut = multilevel_bisect(hg, (t * 0.4, t * 0.6), 0.05, rng, coarsen_to=8)
    return [part, side, cut, rng.bit_generator.state]


def test_driver_matches_numpy_over_seeds():
    hg = column_net_model(poisson2d(6))
    seeds = EDGE_SEEDS + np.random.default_rng(2026).integers(0, 2**63 - 1, 200).tolist()
    for seed in seeds:
        want, got = _both(lambda: _kway_and_bisect(hg, seed))
        assert np.array_equal(want[0], got[0]), seed
        assert np.array_equal(want[1], got[1]) and want[2] == got[2], seed
        assert want[3] == got[3], seed


@pytest.mark.parametrize("buffered", [False, True])
def test_caller_generator_ends_in_the_same_state(buffered):
    """The driver writes the final PCG64 state back, the buffered half
    of a 64-bit draw included: the caller's stream continues as after
    the Python driver."""
    hg = _model("circuit", 2)
    rng = np.random.default_rng(11)
    if buffered:
        rng.random(dtype=np.float32)  # one 32-bit draw, its twin buffered
    assert rng.bit_generator.state["has_uint32"] == int(buffered)

    def run(g):
        part = partition_kway(hg, 5, PartitionConfig(seed=g))
        t = hg.total_weight().astype(np.float64)
        side, cut = multilevel_bisect(hg, (t / 2, t / 2), 0.03, g)
        return part, side, cut, g.bit_generator.state

    want, got = _both(lambda: run(copy.deepcopy(rng)))
    assert np.array_equal(want[0], got[0]) and np.array_equal(want[1], got[1])
    assert want[2:] == got[2:]


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("backend", ["numpy", "native"])
def test_mt19937_generator_partitions_as_before(backend):
    """Values recorded before the C driver existed: a generator on
    another bit generator runs the Python driver on either backend, its
    own V-cycles over the NumPy stages (the subproblems' spawned PCG64
    streams run ``repro_bisect`` on the native backend)."""
    hg = _model("knn", 1)
    with forced_backend(backend):
        rng = np.random.Generator(np.random.MT19937(5))
        part = partition_kway(hg, 8, PartitionConfig(seed=rng))
        assert (_digest(part), rng.integers(1 << 62)) == (
            "ed669d1123867aaf", 2262004063433257024,
        )
        t = hg.total_weight().astype(np.float64)
        rng = np.random.Generator(np.random.MT19937(6))
        side, cut = multilevel_bisect(hg, (t * 0.4, t * 0.6), 0.05, rng)
        assert (_digest(side), cut, rng.integers(1 << 62)) == (
            "011038076caea0f8", 50, 1390440792480973139,
        )


def _stage_tree(tr) -> tuple[Counter, dict]:
    """(parent, name) pairs of the ``partition.*`` spans, and the
    ``partition.*`` counter totals."""
    pairs = Counter()
    for sp in tr.walk():
        for child in sp.children:
            pairs[(sp.name, child.name)] += 1
    pairs.update((None, sp.name) for sp in tr.spans)
    pairs = Counter({k: v for k, v in pairs.items() if k[1].startswith("partition.")})
    counters = {k: v for k, v in tr.total_counters().items() if k.startswith("partition.")}
    return pairs, counters


def test_traced_driver_grafts_the_python_span_tree():
    hg = _model("knn", 1)

    def traced():
        with obs.tracing() as tr:
            part = partition_kway(hg, 64, PartitionConfig(seed=4))
        return part, tr

    (p_np, tr_np), (p_nat, tr_nat) = _both(traced)
    assert np.array_equal(p_np, p_nat)
    assert _stage_tree(tr_np) == _stage_tree(tr_nat)
    names = Counter(sp.name for sp in tr_nat.walk())
    assert names["partition.coarsen"] == 63 and names["partition.kway"] == 1
    # Timed on obs.now's clock, children inside their parents.
    start, end, ulp = tr_nat.t0, obs.now(), 1e-9
    for sp in tr_nat.walk():
        assert start <= sp.t0 and sp.dur >= 0 and sp.t0 + sp.dur <= end
        for child in sp.children:
            assert sp.t0 <= child.t0 and child.t0 + child.dur <= sp.t0 + sp.dur + ulp


@pytest.mark.parametrize("family", ["knn", "dense-row"])
def test_traced_threads_graft_the_serial_tree(family):
    """At 1-4 threads, traced and untraced parts are equal, and the
    grafted span tree and ``partition.*`` counters (bisections and
    levels per V-cycle, the polish's cut before and after) equal the
    1-thread run's: each fork's events land in subtree order."""
    hg = _model(family, 1)
    with forced_backend("native"):
        runs = {}
        for nthreads in (1, 2, 3, 4):
            with partition_threads(nthreads):
                untraced = partition_kway(hg, 24, PartitionConfig(seed=6))
                with obs.tracing() as tr:
                    traced = partition_kway(hg, 24, PartitionConfig(seed=6))
            assert np.array_equal(untraced, traced), nthreads
            names = [sp.name for sp in tr.walk() if sp.name.startswith("partition.")]
            runs[nthreads] = traced, _stage_tree(tr), names
    want_part, want_tree, want_names = runs[1]
    assert want_tree[1]["partition.bisections"] == 23
    for nthreads, (part, tree, names) in runs.items():
        assert np.array_equal(part, want_part), nthreads
        assert tree == want_tree and names == want_names, nthreads


def _spy(monkeypatch, lib, name: str) -> list:
    """Record the arguments of every call of ``lib.<name>``."""
    calls = []
    real = getattr(lib, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lib, name, spy)
    return calls


# Positions of the event log's capacity and pointers, and of the hash
# mask, in the drivers' argument lists.
_LOG_AT, _MASK_AT = 22, 13
_BISECT_LOG_AT, _BISECT_MASK_AT = 21, 10


def _run_drivers(hg: Hypergraph, seed: int = 3):
    part = partition_kway(hg, 4, PartitionConfig(seed=seed))
    t = hg.total_weight().astype(np.float64)
    side, cut = multilevel_bisect(hg, (t / 2, t / 2), 0.05, np.random.default_rng(seed))
    return part, side, cut


def test_untraced_call_passes_no_event_log(monkeypatch):
    kway_calls = _spy(monkeypatch, get_kernels(), "partition_kway")
    bisect_calls = _spy(monkeypatch, get_kernels(), "bisect")
    hg = _model("mesh", 1)
    with forced_backend("native"):
        _run_drivers(hg)
        with obs.tracing():
            _run_drivers(hg)
    for calls, log_at in ((kway_calls, _LOG_AT), (bisect_calls, _BISECT_LOG_AT)):
        untraced, traced = calls
        assert untraced[log_at : log_at + 3] == (0, None, None)
        assert traced[log_at] > 0 and traced[log_at + 1] is not None


@pytest.mark.parametrize("family", ["circuit", "rmat"])
def test_colliding_hashes_through_the_driver(family, monkeypatch):
    """Every content hash masked to 0 reaches the driver's contraction,
    which then merges nets by the exact pin comparison alone."""
    monkeypatch.setattr(coarsen, "_HASH_MASK", 0)
    kway_calls = _spy(monkeypatch, get_kernels(), "partition_kway")
    bisect_calls = _spy(monkeypatch, get_kernels(), "bisect")
    hg = _model(family, 2)
    want, got = _both(lambda: _run_drivers(hg, seed=9))
    assert np.array_equal(want[0], got[0])
    assert np.array_equal(want[1], got[1]) and want[2] == got[2]
    assert [args[_MASK_AT] for args in kway_calls] == [0]
    assert [args[_BISECT_MASK_AT] for args in bisect_calls] == [0]


def _driver_args(hg: Hypergraph, nparts: int = 4) -> dict:
    return dict(
        xpins=hg.xpins, pins=hg.pins, xnets=hg.xnets, nets=hg.nets,
        vweights=hg.vweights, ncosts=hg.ncosts, nparts=nparts, eps_level=0.01,
        epsilon=0.03, coarsen_to=8, ninitial=4, fm_passes=4, max_net_size=200,
        kway_passes=2, max_levels=MAX_LEVELS, stall_fraction=8,
        hash_mask=coarsen._HASH_MASK,
        rng_state=np.array([0, 1, 0, 1, 0, 0], dtype=np.uint64),
    )


def test_debug_guard_checks_driver_inputs(monkeypatch):
    lib = get_kernels()
    monkeypatch.setenv(DEBUG_ENV, "1")
    hg = _model("mesh", 1)
    cases = [
        ({"pins": np.where(hg.pins == 5, hg.nvertices, hg.pins)}, "pins indexes outside"),
        ({"xpins": hg.xpins[::-1].copy()}, "xpins is not a monotone"),
        ({"nets": hg.nets + 1}, "nets indexes outside"),
        ({"nparts": 0}, "nparts 0 is below 1"),
        ({"rng_state": np.zeros(4, dtype=np.uint64)}, "rng_state has 4 entries"),
        (
            {"events": (np.empty((5, 3), dtype=np.int64), np.empty((5, 2)))},
            "the event log must hold",
        ),
    ]
    for change, message in cases:
        with pytest.raises(VerificationError, match=f"partition_kway: {message}"):
            ops.partition_kway(lib, **{**_driver_args(hg), **change})
    # Valid input passes the guard and gives the unguarded result.
    rows = ops.kway_event_rows(hg.nvertices, 4, 4, MAX_LEVELS)
    log = (np.empty((rows, 3), dtype=np.int64), np.empty((rows, 2)))
    guarded = ops.partition_kway(lib, **_driver_args(hg), events=log)
    monkeypatch.delenv(DEBUG_ENV)
    plain = ops.partition_kway(lib, **_driver_args(hg))
    assert np.array_equal(guarded[0], plain[0])
    assert guarded[1] > 0 and plain[1] == 0  # events written only to a log


@pytest.mark.parametrize("arg", ["pins", "xnets", "vweights", "rng_state"])
def test_driver_entries_reject_wrong_dtype_or_layout(arg):
    """The drivers take bare addresses; the wrappers refuse an array of
    another dtype or a non-C-contiguous one before the call instead of
    converting it (or letting C misread it)."""
    hg = _model("mesh", 2)
    t = hg.total_weight().astype(np.float64) / 2
    kway = _driver_args(hg)
    bisect = {k: v for k, v in kway.items() if k not in ("nparts", "eps_level", "kway_passes")}
    bisect["targets"] = np.array([t, t])
    lib = get_kernels()
    for name, wrapper, args in (
        ("partition_kway", ops.partition_kway, kway),
        ("bisect", ops.bisect, bisect),
    ):
        wrapper(lib, **args)  # the valid call runs
        good = args[arg]
        wrong_dtype = good.astype(np.float32 if good.dtype.kind in "iu" else np.int64)
        strided = np.repeat(good, 2, axis=0)[::2]  # same values, every other row
        assert not strided.flags.c_contiguous
        for bad in (wrong_dtype, strided):
            with pytest.raises(TypeError, match=f"native {name}: {arg} must be a C-contig"):
                wrapper(lib, **{**args, arg: bad})


def test_oversized_gain_bound_raises_memory_error():
    """Net costs near 2**58 bound the gains so high that the gain-bucket
    array alone would not fit: the driver refuses before allocating it
    and the call raises MemoryError instead of crashing."""
    hg = Hypergraph.from_net_lists(
        [[0, 1], [1, 2], [0, 2]], 3, ncosts=np.array([2**58, 2**58, 1])
    )
    with forced_backend("native"):
        with pytest.raises(MemoryError, match="native partition_kway: out of memory"):
            partition_kway(hg, 2)


_FAILED_MALLOC_CHILD = """
import resource
import numpy as np
from repro.hypergraph import Hypergraph, PartitionConfig, partition_kway
from repro.native import get_kernels, set_default_backend

assert get_kernels() is not None
set_default_backend("native")
n, ncon = 1024, 2048
# The driver's first large block, the coarse weights, takes 16 MiB.
wide = Hypergraph.from_net_lists(
    [[i, i + 1] for i in range(n - 1)], n, vweights=np.ones((n, ncon), dtype=np.int64)
)
# A gain bound of about 2**37 asks malloc for 2 TiB of gain buckets.
costly = Hypergraph.from_net_lists(
    [[0, 1], [1, 2], [0, 2]], 3, ncosts=np.array([2**36, 2**36, 1])
)
small = Hypergraph.from_net_lists([[i, i + 1] for i in range(40)], 41)
want = partition_kway(small, 4, PartitionConfig(seed=1))
with open("/proc/self/status") as f:
    vm = next(int(line.split()[1]) for line in f if line.startswith("VmSize:")) * 1024
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (vm + (8 << 20), hard))
for hg in (wide, costly, wide):
    try:
        partition_kway(hg, 2)
    except MemoryError as exc:
        assert "native partition_kway: out of memory" in str(exc), exc
    else:
        raise AssertionError("no MemoryError")
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
assert np.array_equal(partition_kway(small, 4, PartitionConfig(seed=1)), want)
print("OK-FAILED-MALLOC")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
def test_failed_malloc_raises_memory_error():
    """Under a lowered address-space limit ``malloc`` really returns
    NULL, once in the driver's pooled workspace and once in the FM
    gain buckets: each call raises MemoryError, and the driver's early
    returns leave a process that partitions as before once the limit is
    lifted."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _FAILED_MALLOC_CHILD], capture_output=True, text=True,
        timeout=300, cwd=root, env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "OK-FAILED-MALLOC" in proc.stdout
