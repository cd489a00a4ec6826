"""The recursive-bisection drivers in C.

``partition_kway`` is one call of ``kernels.c:repro_partition_kway``
and ``multilevel_bisect`` one call of ``kernels.c:repro_bisect``; both
port NumPy's PCG64 streams, and a generator on any other bit generator
is refused.  Pinned here, against the results frozen from the former
Python driver (``tests/golden_partitioner.py``):

- over more than 200 seeds, edge seeds included, the parts, cuts and
  final generator states are the frozen ones, and a caller's generator
  ends in the frozen state (also when it starts with a buffered 32-bit
  draw);
- an MT19937-backed generator raises ConfigError naming it, whatever a
  stale ``REPRO_NATIVE`` in the environment says;
- a traced run grafts the frozen span tree and counters; an untraced
  one passes no event log; at 1-4 threads the traced parts, spans (in
  order) and counters equal the serial run's;
- the drivers read the contraction's hash mask, validate their inputs
  on every call, refuse arrays of the wrong dtype or layout, and report
  a failed ``malloc``, an oversized gain-bucket bound and a workspace
  whose byte count would overflow as ``MemoryError``.
"""

import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigError, VerificationError
from repro.hypergraph import Hypergraph, PartitionConfig, partition_kway
from repro.hypergraph import bisect as vcycle
from repro.hypergraph.bisect import MAX_LEVELS, multilevel_bisect
from repro.native import get_kernels, ops

from tests import golden_partitioner as golden
from tests.golden_partitioner import model as _model
from tests.golden_partitioner import partition_threads
from tests.test_partitioner_native import STALE_SWITCH

pytestmark = pytest.mark.native


def test_driver_matches_numpy_over_seeds():
    """A K=3 partition (two V-cycles, the spawn between them and the
    polish) and one bisection from its own generator, on a 36-vertex
    mesh, per seed of the sweep: edge seeds and 200 drawn ones."""
    assert len(golden.seed_sweep()) == 207
    assert golden.check("seeds/") == []


@pytest.mark.parametrize("buffered", [False, True])
def test_caller_generator_ends_in_the_same_state(buffered):
    """The driver writes the final PCG64 state back, the buffered half
    of a 64-bit draw included: the caller's stream continues as after
    the Python driver."""
    rng = np.random.default_rng(11)
    if buffered:
        rng.random(dtype=np.float32)
    assert rng.bit_generator.state["has_uint32"] == int(buffered)
    assert golden.check(f"caller_state/buffered-{buffered}") == []


@pytest.mark.parametrize("backend", ["numpy", "native"])
def test_mt19937_generator_is_refused(backend, monkeypatch):
    """The drivers draw PCG64 streams only: a generator on another bit
    generator raises ConfigError naming it before any work, with either
    setting of the deleted ``REPRO_NATIVE`` switch left in the
    environment, and is left as it was."""
    monkeypatch.setenv("REPRO_NATIVE", STALE_SWITCH[backend])
    hg = _model("knn", 1)
    t = hg.total_weight().astype(np.float64)
    for run in (
        lambda g: partition_kway(hg, 8, PartitionConfig(seed=g)),
        lambda g: multilevel_bisect(hg, (t * 0.4, t * 0.6), 0.05, g, PartitionConfig()),
    ):
        rng = np.random.Generator(np.random.MT19937(5))
        with pytest.raises(ConfigError, match="PCG64 streams, got a generator on MT19937"):
            run(rng)
        fresh = np.random.Generator(np.random.MT19937(5))
        assert rng.integers(1 << 62) == fresh.integers(1 << 62)


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
    """The frozen tree and counters are the former Python driver's."""
    assert golden.check("graft/") == []
    hg = _model("knn", 1)
    with obs.tracing() as tr_nat:
        partition_kway(hg, 64, PartitionConfig(seed=4))
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
    side, cut = multilevel_bisect(
        hg, (t / 2, t / 2), 0.05, np.random.default_rng(seed), PartitionConfig()
    )
    return part, side, cut


def test_untraced_call_passes_no_event_log(monkeypatch):
    kway_calls = _spy(monkeypatch, get_kernels(), "partition_kway")
    bisect_calls = _spy(monkeypatch, get_kernels(), "bisect")
    hg = _model("mesh", 1)
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
    kway_calls = _spy(monkeypatch, get_kernels(), "partition_kway")
    bisect_calls = _spy(monkeypatch, get_kernels(), "bisect")
    assert golden.check(f"driver_hashes/{family}") == []
    assert vcycle._HASH_MASK == (1 << 64) - 1  # restored
    assert [args[_MASK_AT] for args in kway_calls] == [0]
    assert [args[_BISECT_MASK_AT] for args in bisect_calls] == [0]


def _driver_args(hg: Hypergraph, nparts: int = 4) -> dict:
    return dict(
        xpins=hg.xpins, pins=hg.pins, xnets=hg.xnets, nets=hg.nets,
        vweights=hg.vweights, ncosts=hg.ncosts, nparts=nparts, eps_level=0.01,
        epsilon=0.03, coarsen_to=8, ninitial=4, fm_passes=4, max_net_size=200,
        kway_passes=2, max_levels=MAX_LEVELS, stall_fraction=8,
        hash_mask=vcycle._HASH_MASK,
        rng_state=np.array([0, 1, 0, 1, 0, 0], dtype=np.uint64),
    )


def test_debug_guard_checks_driver_inputs():
    lib = get_kernels()
    hg = _model("mesh", 1)
    swapped = hg.nets.copy()
    swapped[[0, -1]] = swapped[[-1, 0]]  # the counts still agree
    cases = [
        ({"pins": np.where(hg.pins == 5, hg.nvertices, hg.pins)}, "pins indexes outside"),
        ({"xpins": hg.xpins[::-1].copy()}, "xpins is not a monotone"),
        ({"nets": hg.nets + 1}, "nets indexes outside"),
        ({"nets": swapped}, "xnets/nets is not the transpose of xpins/pins"),
        (
            {"nets": np.append(hg.nets, 0), "xnets": np.append(hg.xnets[:-1], hg.nets.size + 1)},
            "xnets/nets is not the transpose",
        ),
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
    # Valid input passes the guard; events are written only to a log.
    rows = ops.kway_event_rows(hg.nvertices, 4, 4, MAX_LEVELS)
    log = (np.empty((rows, 3), dtype=np.int64), np.empty((rows, 2)))
    logged = ops.partition_kway(lib, **_driver_args(hg), events=log)
    plain = ops.partition_kway(lib, **_driver_args(hg))
    assert np.array_equal(logged[0], plain[0])
    assert logged[1] > 0 and plain[1] == 0


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
    with pytest.raises(MemoryError, match="native partition_kway: out of memory"):
        partition_kway(hg, 2)


_FAILED_MALLOC_CHILD = """
import resource
import numpy as np
from repro.hypergraph import Hypergraph, PartitionConfig, partition_kway
from repro.native import get_kernels

assert get_kernels() is not None
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


_HUGE_NINITIAL_CHILD = """
from repro.generators.mesh import poisson2d
from repro.hypergraph import PartitionConfig, column_net_model, partition_kway

hg = column_net_model(poisson2d(6))
try:
    partition_kway(hg, 4, PartitionConfig(ninitial=2**62))
except MemoryError as exc:
    assert "native partition_kway: out of memory" in str(exc), exc
    print("OK-HUGE-NINITIAL")
"""


def test_huge_ninitial_raises_memory_error():
    """2**62 trial seeds of 8 bytes wrap a 64-bit byte count to 0: the
    driver's allocator refuses the count instead of handing out a short
    block that the trials then overrun, so the call raises MemoryError
    and the process lives on."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _HUGE_NINITIAL_CHILD], capture_output=True, text=True,
        timeout=300, cwd=root, env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    assert "OK-HUGE-NINITIAL" in proc.stdout
