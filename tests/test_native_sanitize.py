"""Sanitizer-built native kernels and the ctypes pre-call bounds guard.

The ASan runtime reads its options from the *exec-time* environment, so
the sanitized variant is exercised in child interpreters launched with
``ASAN_OPTIONS`` preconfigured (the in-process load path refuses with a
recorded reason instead — also pinned here).  Where the toolchain can
build but not load the sanitized library, the tests skip with the
recorded reason rather than fail.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro.native.build as native_build
from repro.errors import ConfigError, VerificationError
from repro.hypergraph import Hypergraph
from repro.native import (
    DEBUG_ENV,
    SANITIZE_ENV,
    debug_bounds_enabled,
    find_compiler,
    get_kernels,
    ops,
    sanitize_default,
)
from repro.native.build import _asan_preconfigured, _reset_native_state

HAVE_CC = find_compiler() is not None

_CHILD_ENV_BASE = {
    "ASAN_OPTIONS": native_build._ASAN_OPTIONS,
    SANITIZE_ENV: "1",
    "PYTHONPATH": "src",
}


def _run_child(
    code: str, *, preload_asan: bool = False, asan_options: str = ""
) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ASan preconfigured.

    ``preload_asan=True`` additionally LD_PRELOADs the ASan runtime so
    its malloc interceptors wrap NumPy's allocations — required for
    redzone detection around buffers allocated outside instrumented
    code (a late-dlopen'd runtime cannot retrofit interception).
    ``asan_options`` are appended to the child's ``ASAN_OPTIONS``.
    """
    env = {**os.environ, **_CHILD_ENV_BASE}
    if asan_options:
        env["ASAN_OPTIONS"] += ":" + asan_options
    if preload_asan:
        env["LD_PRELOAD"] = _libasan()
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


def _libasan() -> str | None:
    """Path to the compiler's ASan runtime .so, or None."""
    cc = find_compiler()
    if cc is None:
        return None
    try:
        out = subprocess.run(
            [cc, "-print-file-name=libasan.so"],
            capture_output=True,
            text=True,
            timeout=60,
        ).stdout.strip()
    except OSError:
        return None
    path = os.path.realpath(out)
    return path if out and os.path.exists(path) else None


def _skip_if_unloadable(proc: subprocess.CompletedProcess) -> None:
    if "SKIP-NATIVE:" in proc.stdout:
        reason = proc.stdout.split("SKIP-NATIVE:", 1)[1].strip()
        pytest.skip(f"sanitized kernels unavailable: {reason}")


_GOLDEN_CHILD = """
import numpy as np
from repro.native import build

lib = build.get_kernels()
if lib is None:
    print("SKIP-NATIVE:", build.native_status()["sanitize_reason"])
    raise SystemExit(0)
st = build.native_status()
assert st["variant"] == "sanitize", st

import scipy.sparse as sp
from repro.engine import PartitionEngine
from repro.sparse.coo import canonical_coo

a = canonical_coo(sp.random(60, 60, density=0.1, random_state=3, format="coo"))
eng = PartitionEngine(a, seed=11)
rng = np.random.default_rng(44)
# repro_plan_apply on all three execution models (single, two-phase,
# routed), K=1 included.
modes = set()
for method in ("1d-rowwise", "s2d-heuristic", "finegrain", "s2d-bounded"):
    for k in (1, 3):
        plan = eng.compiled_plan(eng.plan(method, k), verify=True)
        modes.add(plan.executor)
        x = rng.standard_normal(plan.ncols)
        assert np.array_equal(
            plan.apply_y(x, backend="numpy"), plan.apply_y(x, backend="native")
        ), method
assert modes == {"single", "two", "routed"}, modes

# The partitioner driver: two-constraint partition_kway calls (one
# repro_partition_kway each, on two threads, traced ones with an event
# log, one with every content hash masked) per backend, and one that
# returns early with its workspace allocated (a gain bound too large
# for the buckets).
from repro import obs
from repro.generators.circuit import circuit_like
from repro.hypergraph import Hypergraph, PartitionConfig, column_net_model, partition_kway
from repro.hypergraph import coarsen as coarsen_mod
from repro.jobs import set_partition_threads
from repro.native import set_default_backend

set_partition_threads(2)
hg = column_net_model(circuit_like(200, seed=5))
extra = np.random.default_rng(1).integers(0, 3, hg.nvertices)
hg = Hypergraph(hg.xpins, hg.pins, np.column_stack([hg.vweights[:, 0], extra]), hg.ncosts)
runs = {}
for backend in ("numpy", "native"):
    set_default_backend(backend)
    out = []
    for k in (1, 8, 64):
        with obs.tracing() as tr:
            out.append(partition_kway(hg, k, PartitionConfig(seed=2)))
        out.append(np.array(sorted(sp.name for sp in tr.walk())))
    coarsen_mod._HASH_MASK = 0
    out.append(partition_kway(hg, 8, PartitionConfig(seed=3)))
    coarsen_mod._HASH_MASK = (1 << 64) - 1
    runs[backend] = out
for want, got in zip(runs["numpy"], runs["native"]):
    assert np.array_equal(want, got)
costly = Hypergraph(hg.xpins, hg.pins, hg.vweights, np.full(hg.nnets, 2**58))
try:
    partition_kway(costly, 8)
except MemoryError:
    pass
else:
    raise AssertionError("no MemoryError")

# One V-cycle per repro_bisect call on a tie-heavy fine-grain model:
# the HCM matching, the contraction, greedy growing and the random fill
# (two trials), the FM set-up alone (no passes) and with its passes,
# both targets, and a call whose event log is written.
from repro.hypergraph import fine_grain_model
from repro.hypergraph.bisect import multilevel_bisect
from repro.rng import as_generator

fg = fine_grain_model(circuit_like(120, seed=6)).hypergraph
t = fg.total_weight().astype(float)
bisections = {}
for backend in ("numpy", "native"):
    set_default_backend(backend)
    out = []
    for frac in (0.4, 0.5):
        for passes in (0, 4):
            rng = as_generator(3)
            side, cut = multilevel_bisect(
                fg, (t * frac, t * (1 - frac)), 0.05, rng, coarsen_to=40,
                ninitial=2, fm_passes=passes,
            )
            out += [side, np.array([cut]), np.array([rng.integers(1 << 62)])]
    with obs.tracing() as tr:
        out.append(multilevel_bisect(fg, (t / 2, t / 2), 0.05, as_generator(4))[0])
    out.append(np.array(sorted(sp.name for sp in tr.walk())))
    bisections[backend] = out
for want, got in zip(bisections["numpy"], bisections["native"]):
    assert np.array_equal(want, got)

# Algorithm 1's kernels: repro_block_dm over every off-diagonal block and
# repro_s2d_flip, against the NumPy reference, on a dense-row matrix and
# a rectangular random one.
from repro.core.s2d import s2d_heuristic
from repro.dm.batch import batched_block_dm
from repro.generators.circuit import banded_with_dense_rows
from repro.sparse.blocks import BlockStructure

rng = np.random.default_rng(9)
for m in (
    canonical_coo(banded_with_dense_rows(200, ndense=3, seed=2)),
    canonical_coo(sp.random(70, 90, density=0.06, random_state=5, format="coo")),
):
    for k in (2, 7):
        bs = BlockStructure(
            m.row, m.col, rng.integers(0, k, m.shape[1]), rng.integers(0, k, m.shape[0]), k
        )
        runs = {}
        for backend in ("numpy", "native"):
            set_default_backend(backend)
            t = batched_block_dm(bs)
            h = s2d_heuristic(m, x_part=bs.x_part, y_part=bs.y_part, nparts=k,
                              block_structure=bs, choices=t)
            runs[backend] = [t.row_label, t.col_label, t.matching_size, t.h_mask,
                             h.meta["chosen"], h.nnz_part, np.array([h.meta["rounds"]])]
        for want, got in zip(runs["numpy"], runs["native"]):
            assert np.array_equal(want, got)
print("OK-SANITIZED-GOLDEN")
"""

def subtree_enomem_case() -> Hypergraph:
    """A K = 4 partition (``coarsen_to=2``) whose root bisection fits in
    8 MB allocations and one of whose sides does not.

    Component A (20 unit vertices, a 3-regular graph of nets of cost C)
    and component B (4 vertices of weight 5) weigh the same, so the root
    splits them apart.  The root has 24 <= 8K vertices and is not
    coarsened: its FM gain bound is 3C, its gain buckets take 7.2 MB.
    Side A (20 vertices, two parts, coarsened to 16) is coarsened: a
    matched pair has four nets of cost C, and its gain buckets take
    9.6 MB.  Seed 4 puts A on side 1, which runs on a fork's thread;
    seed 0 on side 0, which the calling thread keeps while the fork
    runs side B (``test_subtree_enomem_case_splits_as_documented``).
    """
    c = 150_000
    nets = (
        [[i, (i + 1) % 20] for i in range(20)] + [[i, i + 10] for i in range(10)]
        + [[20 + i, 20 + (i + 1) % 4] for i in range(4)]
    )
    w = np.array([1] * 20 + [5] * 4, dtype=np.int64)[:, None]
    return Hypergraph.from_net_lists(
        nets, 24, vweights=w, ncosts=np.array([c] * 30 + [1] * 4)
    )


def test_subtree_enomem_case_splits_as_documented():
    from repro import obs
    from repro.hypergraph import PartitionConfig, partition_kway
    from repro.native import set_default_backend

    hg = subtree_enomem_case()
    set_default_backend("numpy")
    try:
        for seed, a_parts, levels in ((4, {2, 3}, [0, 0, 1]), (0, {0, 1}, [0, 1, 0])):
            with obs.tracing() as tr:
                part = partition_kway(hg, 4, PartitionConfig(seed=seed, coarsen_to=2))
            assert set(part[:20].tolist()) == a_parts, seed
            coarsen = [sp for sp in tr.walk() if sp.name == "partition.coarsen"]
            assert [sp.counters["partition.levels"] for sp in coarsen] == levels, seed
    finally:
        set_default_backend(None)


# The driver with a side, not the root, out of memory: the child's
# ASAN_OPTIONS let no allocation take more than 8 MB.
_SUBTREE_ENOMEM_CHILD = """
import numpy as np
from repro.native import build

lib = build.get_kernels()
if lib is None:
    print("SKIP-NATIVE:", build.native_status()["sanitize_reason"])
    raise SystemExit(0)
from repro.hypergraph import Hypergraph, PartitionConfig, partition_kway
from repro.jobs import set_partition_threads
from repro.native import set_default_backend

from tests.test_native_sanitize import subtree_enomem_case

hg = subtree_enomem_case()
set_default_backend("native")
for seed in (4, 0):
    for nthreads in (2, 1):
        set_partition_threads(nthreads)
        try:
            partition_kway(hg, 4, PartitionConfig(seed=seed, coarsen_to=2))
        except MemoryError as exc:
            assert "native partition_kway: out of memory" in str(exc), exc
        else:
            raise AssertionError(f"no MemoryError at seed {seed}, {nthreads} threads")
# Every fork was joined and freed: the process partitions as before.
set_partition_threads(2)
small = Hypergraph.from_net_lists([[i, i + 1] for i in range(40)], 41)
got = partition_kway(small, 4, PartitionConfig(seed=1))
set_default_backend("numpy")
assert np.array_equal(got, partition_kway(small, 4, PartitionConfig(seed=1)))
print("OK-SUBTREE-ENOMEM")
"""

_OOB_CHILD = """
import numpy as np
from repro.native import build, ops

lib = build.get_kernels()
if lib is None:
    print("SKIP-NATIVE:", build.native_status()["sanitize_reason"])
    raise SystemExit(0)
# Block 0 flips and moves its load out of row part 2 of two parts: one
# past the loads buffer, in the ASan redzone rather than in some
# unrelated mapping a huge offset might silently hit.
i64 = lambda *v: np.array(v, dtype=np.int64)
ops.s2d_flip(  # debug guard off: straight into the C loop
    lib, order=i64(0), row_part=i64(2), col_part=i64(0), h_size=i64(1),
    loads=i64(5, 5), w_lim=10.0, max_rounds=1,
)
print("UNREACHABLE")  # the sanitizer must abort before this line
"""


@pytest.mark.native
@pytest.mark.sanitize
def test_sanitized_kernels_pass_golden_applies():
    """The ASan/UBSan build variant is bit-identical to NumPy on every
    exported entry, run in a child with the sanitizer runtime active:
    full plan applies (``repro_plan_apply`` under all three execution
    models, one and many right-hand sides); two-constraint
    ``partition_kway`` calls (``repro_partition_kway``: its allocations,
    event logs and early out-of-memory return, and through it every
    partitioner stage including the K-way polish); ``multilevel_bisect``
    calls (``repro_bisect``: the HCM matching, contraction, both
    initial bisections and the FM set-up without and with passes); and
    the block DM and s2D flip kernels over every off-diagonal block of
    two matrices."""
    proc = _run_child(_GOLDEN_CHILD)
    _skip_if_unloadable(proc)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "OK-SANITIZED-GOLDEN" in proc.stdout


@pytest.mark.native
@pytest.mark.sanitize
def test_sanitized_driver_fails_inside_a_subtree_cleanly():
    """``repro_partition_kway`` at ``nthreads = 2`` with a side, not the
    root, out of memory (ASan's allocator returns NULL above 8 MB in
    this child): on the fork's thread and on the calling thread, the
    call joins every thread, frees everything, raises MemoryError, and
    the next call partitions as the NumPy reference does."""
    proc = _run_child(
        _SUBTREE_ENOMEM_CHILD,
        preload_asan=True,
        asan_options="allocator_may_return_null=1:max_allocation_size_mb=8",
    )
    _skip_if_unloadable(proc)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "OK-SUBTREE-ENOMEM" in proc.stdout


@pytest.mark.native
@pytest.mark.sanitize
def test_sanitizer_catches_out_of_bounds_write():
    """Negative control: an intentionally out-of-bounds load update in
    the s2D flip loop must make the sanitized child die loudly instead
    of corrupting memory — proof the instrumentation is actually
    live."""
    if _libasan() is None:
        pytest.skip("cannot locate the ASan runtime for LD_PRELOAD")
    proc = _run_child(_OOB_CHILD, preload_asan=True)
    _skip_if_unloadable(proc)
    assert proc.returncode != 0
    assert "AddressSanitizer" in proc.stderr, proc.stderr[-500:]
    assert "UNREACHABLE" not in proc.stdout


@pytest.mark.native
@pytest.mark.sanitize
def test_in_process_sanitize_load_refused_without_exec_env(monkeypatch):
    """Without ASAN_OPTIONS at interpreter startup the sanitized .so
    cannot be dlopen'd safely; get_kernels(sanitize=True) must record a
    reason and return None instead of aborting the process."""
    if _asan_preconfigured():
        pytest.skip("interpreter already started with ASan options")
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    _reset_native_state()
    try:
        lib = get_kernels(sanitize=True)
        reason = native_build.native_status()["sanitize_reason"]
        if lib is None and reason and "ASAN_OPTIONS" not in reason:
            pytest.skip(f"toolchain cannot build ASan: {reason}")
        assert lib is None
        assert "ASAN_OPTIONS" in reason
        # The std variant stays available alongside the refused one.
        assert get_kernels(sanitize=False) is not None
    finally:
        _reset_native_state()


# ----------------------------------------------------------------------
# Debug-mode ctypes bounds validator (pure Python, no compiler needed)
# ----------------------------------------------------------------------


def test_validate_rejects_out_of_bounds_and_size_mismatch():
    rows = np.array([0, 1, 3], dtype=np.int64)
    ops._validate("plan_apply", 3, ("rows", rows, 4, 3))  # clean
    with pytest.raises(VerificationError, match="outside"):
        ops._validate("plan_apply", 3, ("rows", rows, 3, 3))
    with pytest.raises(VerificationError, match="plan_apply"):
        ops._validate("plan_apply", 3, ("rows", rows, 4, 2))
    with pytest.raises(VerificationError):
        ops._validate("k", 1, ("idx", np.array([-1], dtype=np.int64), 4, 1))


@pytest.mark.native
def test_debug_guard_blocks_bad_indices_before_the_c_loop(monkeypatch):
    """``repro_bisect``'s inputs: a pin past the last vertex, offsets
    that decrease, targets of the wrong size, no initial trial and a
    short event log are refused before the C V-cycle; valid input goes
    through and gives the unguarded result."""
    lib = get_kernels()
    if lib is None:
        pytest.skip("native kernels unavailable")
    from repro.hypergraph import coarsen
    from repro.hypergraph.bisect import MAX_LEVELS

    monkeypatch.setenv(DEBUG_ENV, "1")
    assert debug_bounds_enabled()
    hg = Hypergraph.from_net_lists([[i, i + 1, (i + 5) % 12] for i in range(11)], 12)
    t = hg.total_weight().astype(np.float64) / 2

    def args():
        return dict(
            xpins=hg.xpins, pins=hg.pins, xnets=hg.xnets, nets=hg.nets,
            vweights=hg.vweights, ncosts=hg.ncosts, targets=np.array([t, t]),
            epsilon=0.05, coarsen_to=4, ninitial=2, fm_passes=2, max_net_size=200,
            max_levels=MAX_LEVELS, stall_fraction=8, hash_mask=coarsen._HASH_MASK,
            rng_state=np.array([0, 1, 0, 1, 0, 0], dtype=np.uint64),
        )

    for change, message in (
        ({"pins": np.where(hg.pins == 5, 12, hg.pins)}, "pins indexes outside .*unchecked C loop"),
        ({"xnets": hg.xnets[::-1].copy()}, "xnets is not a monotone"),
        ({"targets": np.array([t])}, "targets has 1 entries, expected 2"),
        ({"ninitial": 0}, "ninitial 0 is below 1"),
        (
            {"events": (np.empty((3, 3), dtype=np.int64), np.empty((3, 2)))},
            "the event log must hold",
        ),
    ):
        with pytest.raises(VerificationError, match=f"native bisect: {message}"):
            ops.bisect(lib, **{**args(), **change})
    guarded = ops.bisect(lib, **args())
    monkeypatch.delenv(DEBUG_ENV)
    plain = ops.bisect(lib, **args())
    assert np.array_equal(guarded[0], plain[0]) and guarded[1:] == plain[1:]


@pytest.mark.native
def test_debug_guard_checks_plan_arrays_when_binding_the_apply(monkeypatch):
    """The one-call plan apply binds its arrays once, so the debug guard
    runs there: a corrupted index never reaches repro_plan_apply."""
    if get_kernels() is None:
        pytest.skip("native kernels unavailable")
    from repro.runtime import compile_plan
    from tests.golden_runtime import golden_instances

    monkeypatch.setenv(DEBUG_ENV, "1")
    _, p, _ = golden_instances()[2]  # routed: pre, combine, main and fold
    plan = compile_plan(p)
    x = np.random.default_rng(3).standard_normal(plan.ncols)
    assert np.array_equal(plan.apply_y(x, backend="native"), plan.apply_y(x, backend="numpy"))
    for field in ("pre_cols", "main_cols"):
        bad = compile_plan(p)
        getattr(bad, field)[0] = bad.ncols
        with pytest.raises(VerificationError, match=f"plan_apply: {field}.*unchecked C loop"):
            bad.apply_y(x, backend="native")


def _two_block_batch():
    """A 2×2 identity block and a full 1×2 block, as ``ops.block_dm``
    takes them."""
    i64 = lambda *v: np.array(v, dtype=np.int64)  # noqa: E731
    return dict(
        row_off=i64(0, 2, 3), col_off=i64(0, 2, 4), rptr=i64(0, 1, 2, 4),
        adj=i64(0, 1, 0, 1), cptr=i64(0, 1, 2, 3, 4), cadj=i64(0, 1, 0, 0),
    )


@pytest.mark.native
def test_debug_guard_checks_block_dm_offsets_and_flip_indices(monkeypatch):
    """Offsets that are not monotone, do not reach their totals or give
    a block different row and column edge spans, and ids outside their
    block, are refused before repro_block_dm; so are a flip order that
    is not a permutation and part ids out of range before
    repro_s2d_flip."""
    lib = get_kernels()
    if lib is None:
        pytest.skip("native kernels unavailable")
    from repro.dm.batch import _labels_numpy

    monkeypatch.setenv(DEBUG_ENV, "1")
    good = _two_block_batch()
    got = ops.block_dm(lib, **good)
    want = _labels_numpy(**good)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert got[2].tolist() == [2, 1]
    i64 = lambda *v: np.array(v, dtype=np.int64)  # noqa: E731
    for name, bad, message in (
        ("rptr", i64(0, 2, 1, 4), "rptr is not a monotone"),
        ("rptr", i64(0, 1, 2, 3), "rptr is not a monotone"),
        ("col_off", i64(0, 2, 3), "col_off is not a monotone"),
        ("row_off", i64(0, 3, 3), "same edge span"),
        ("adj", i64(0, 2, 0, 1), "adj holds an id outside its block"),
        ("cadj", i64(0, 1, 1, 0), "cadj holds an id outside its block"),
    ):
        with pytest.raises(VerificationError, match=f"native block_dm: .*{message}"):
            ops.block_dm(lib, **{**good, name: bad})

    flip = dict(
        order=i64(1, 0), row_part=i64(0, 1), col_part=i64(1, 0), h_size=i64(2, 1),
        loads=i64(5, 5), w_lim=6.0, max_rounds=4,
    )
    assert ops.s2d_flip(lib, **flip)[1] >= 1
    for name, bad, message in (
        ("order", i64(0, 0), "order is not a permutation"),
        ("col_part", i64(1, 2), "col_part indexes outside"),
    ):
        with pytest.raises(VerificationError, match=f"native s2d_flip: {message}"):
            ops.s2d_flip(lib, **{**flip, name: bad})


def test_env_flag_parsing(monkeypatch):
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    assert sanitize_default() is False
    monkeypatch.setenv(SANITIZE_ENV, "1")
    assert sanitize_default() is True
    monkeypatch.setenv(SANITIZE_ENV, "yes")
    with pytest.raises(ConfigError, match=SANITIZE_ENV):
        sanitize_default()
    monkeypatch.setenv(DEBUG_ENV, "0")
    assert not debug_bounds_enabled()
