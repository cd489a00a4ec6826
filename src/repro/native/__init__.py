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
  only partitioner: every partitioning call needs this library
  (:func:`require_kernels`), whatever the backend switch says;
- Algorithm 1's combinatorics: ``repro_block_dm`` takes the coarse
  Dulmage–Mendelsohn labels of every block of a DM batch in one call
  (:func:`~repro.native.ops.block_dm`), and ``repro_s2d_flip`` runs the
  s2D heuristic's greedy flip rounds (:func:`~repro.native.ops.s2d_flip`).
  The DM kernel finds its own maximum matching rather than the NumPy
  reference's Hopcroft–Karp one; the labels and the matching size are
  the same for every maximum matching (Pothen & Fan, 1990), so the
  results are identical.

The kernels check nothing; every call into them is checked, with no
switch to turn that off (:mod:`repro.native.ops`, and
``repro.runtime.plan._NativeApply`` for the plan apply): dtype and
layout (:class:`TypeError`), offsets, index bounds, sizes and the
drivers' CSR transposition (:class:`~repro.errors.VerificationError`).

The library is compiled on demand with the host ``cc`` into a
content-hash-named ``.so`` under a build cache (``build.py``), loaded
via :mod:`ctypes`, and dispatched behind a feature flag:

- ``backend="numpy" | "native" | "auto"`` kwargs on
  :meth:`~repro.runtime.CommPlan.apply` /
  :meth:`~repro.runtime.CommPlan.apply_y` and the solvers (the DM
  batch and the s2D flip loop take no kwarg and follow the process
  default; the partitioner ignores the switch);
- the ``REPRO_NATIVE`` environment flag (``0`` forces NumPy, ``1`` or
  unset prefers native where a compiler exists);
- when no compiler is available, ``auto`` silently falls back to the
  NumPy kernels and records the reason (``native_status()``, surfaced
  by the CLI ``native-info`` subcommand); partitioning then raises
  :class:`~repro.errors.ConfigError` with that reason.

The C accumulations iterate in index order (the main products of a row
in a register from +0.0, as ``np.bincount`` sums a bin), so every sum
reproduces ``np.bincount``/``np.add.at`` element order bit for bit —
the golden y/ledger/flops pins hold unchanged under the native backend.  The
partitioner's results are pinned by the frozen reference fixture
``tests/fixtures/partitioner_reference.json``.  The s2D partitions are
identical on both backends: the flip loop keeps int64 loads and
compares them in double as NumPy does.
"""

from repro.native import ops
from repro.native.build import (
    BACKENDS,
    CACHE_ENV,
    FLAG_ENV,
    SANITIZE_ENV,
    KernelLib,
    cache_dir,
    find_compiler,
    get_kernels,
    native_status,
    require_kernels,
    resolve_backend,
    sanitize_default,
    set_default_backend,
)

__all__ = [
    "BACKENDS",
    "CACHE_ENV",
    "FLAG_ENV",
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
    "set_default_backend",
]
