"""Native C kernel backend.

The library (``kernels.c``) exports whole calls only, one per job a
layer hands to C:

- ``repro_plan_apply`` runs a whole :class:`~repro.runtime.CommPlan`
  apply — grouped precompute, routed combine, row-segmented main
  products and fold — in one call (the NumPy apply's gathers and
  scatter-sums are multi-pass, temporary-allocating operations);
- ``repro_partition_kway`` runs the whole recursive bisection of
  :func:`repro.hypergraph.partition_kway` and ``repro_bisect`` one
  V-cycle of :func:`repro.hypergraph.bisect.multilevel_bisect`
  (Mondriaan ORB's bisections), drawing NumPy's PCG64 streams bit for
  bit (:func:`repro.native.ops.partition_kway`,
  :func:`~repro.native.ops.bisect`).  The recursion runs the two sides
  of a split on separate threads, with the same parts at any thread
  count, and its K-way polish keeps O(pins) memory at any K.  Their
  stage loops — HCM matching, contraction, both initial bisections,
  FM set-up and passes, the K-way polish — are static in C and are the
  only partitioner;
- Algorithm 1's combinatorics: ``repro_block_dm`` takes the coarse
  Dulmage–Mendelsohn labels of every block of a DM batch in one call
  (:func:`~repro.native.ops.block_dm`), and ``repro_s2d_flip`` runs the
  s2D heuristic's greedy flip rounds (:func:`~repro.native.ops.s2d_flip`);
  both are the only implementation.  The DM kernel finds its own
  maximum matching; the labels and the matching size are the same for
  every maximum matching (Pothen & Fan, 1990), which is what lets the
  tests check it against a Hopcroft–Karp oracle.

The kernels check nothing; every call into them is checked, with no
switch to turn that off (:mod:`repro.native.ops`, and
``repro.runtime.plan._NativeApply`` for the plan apply): dtype and
layout (:class:`TypeError`), offsets, index bounds, sizes and the
drivers' CSR transposition (:class:`~repro.errors.VerificationError`).

The library is compiled on demand with the host ``cc`` into a
content-hash-named ``.so`` under a build cache (``build.py``) and loaded
via :mod:`ctypes`.  Every consumer needs it (:func:`require_kernels`):
on a host without a compiler, partitioning, the block DM, the flip
loop and a default apply raise :class:`~repro.errors.ConfigError` with
the recorded reason
(``native_status()``, surfaced by the CLI ``native-info`` subcommand).
The one per-call choice is ``backend="native" | "numpy"`` on
:meth:`~repro.runtime.CommPlan.apply` /
:meth:`~repro.runtime.CommPlan.apply_y` / :meth:`~repro.runtime.CommPlan.bind`
and the solvers (default ``"native"``, checked by
:func:`resolve_backend`); ``"numpy"`` is the apply the derivations
compute every simulated ``y`` with, and needs no compiler.

The C accumulations iterate in index order (the main products of a row
in a register from +0.0, as ``np.bincount`` sums a bin), so every sum
reproduces ``np.bincount``/``np.add.at`` element order bit for bit —
the golden y/ledger/flops pins hold unchanged under the native backend.  The
partitioner's results are pinned by the frozen reference fixture
``tests/fixtures/partitioner_reference.json``; the DM labels and the
flip rounds by the NumPy oracles in ``tests/dm_oracle.py`` (the flip
loop keeps int64 loads and compares them in double as the oracle
does).
"""

from repro.native import ops
from repro.native.build import (
    BACKENDS,
    CACHE_ENV,
    SANITIZE_ENV,
    KernelLib,
    cache_dir,
    find_compiler,
    get_kernels,
    native_status,
    require_kernels,
    resolve_backend,
    sanitize_default,
)

__all__ = [
    "BACKENDS",
    "CACHE_ENV",
    "SANITIZE_ENV",
    "KernelLib",
    "cache_dir",
    "find_compiler",
    "get_kernels",
    "native_status",
    "ops",
    "require_kernels",
    "resolve_backend",
    "sanitize_default",
]
