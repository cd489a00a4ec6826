"""Native C kernel backend.

The kernels (``kernels.c``) serve three layers:

- the compiled :class:`~repro.runtime.CommPlan`, whose NumPy gathers
  and scatter-sums are multi-pass, temporary-allocating operations
  (``plan.apply`` sat ~5–6× above the raw single-core scipy CSR floor):
  ``repro_plan_apply`` runs a whole apply — grouped precompute,
  routed combine, row-segmented main products and fold — in one call,
  and two index-order scatter loops serve the serial shard replay;
- the hypergraph partitioner, whose FM pass loop and K-way polish make
  one move at a time and paid a dozen NumPy calls per move:
  ``repro_fm_passes`` (state set-up included) and ``repro_kway_passes``
  run those loops whole (:func:`repro.native.ops.fm_passes`,
  :func:`~repro.native.ops.kway_passes`); and whose V-cycle front half
  visits one vertex or net at a time: ``repro_hcm_match`` scores and
  matches on the fly (no sparse product), ``repro_contract`` builds the
  coarse hypergraph, ``repro_greedy_grow`` and ``repro_random_fill``
  build the initial bisections (:func:`~repro.native.ops.hcm_match`,
  :func:`~repro.native.ops.contract`,
  :func:`~repro.native.ops.greedy_grow`,
  :func:`~repro.native.ops.random_fill`);
- Algorithm 1's combinatorics: ``repro_block_dm`` takes the coarse
  Dulmage–Mendelsohn labels of every block of a DM batch in one call
  (:func:`~repro.native.ops.block_dm`), and ``repro_s2d_flip`` runs the
  s2D heuristic's greedy flip rounds (:func:`~repro.native.ops.s2d_flip`).
  The DM kernel finds its own maximum matching rather than the NumPy
  reference's Hopcroft–Karp one; the labels and the matching size are
  the same for every maximum matching (Pothen & Fan, 1990), so the
  results are identical.

The library is compiled on demand with the host ``cc`` into a
content-hash-named ``.so`` under a build cache (``build.py``), loaded
via :mod:`ctypes`, and dispatched behind a feature flag:

- ``backend="numpy" | "native" | "auto"`` kwargs on
  :meth:`~repro.runtime.CommPlan.apply` /
  :meth:`~repro.runtime.CommPlan.apply_many`, the serial shard replay
  and the solvers (the partitioner, the DM batch and the s2D flip loop
  take no kwarg and follow the process default);
- the ``REPRO_NATIVE`` environment flag (``0`` forces NumPy, ``1`` or
  unset prefers native where a compiler exists);
- when no compiler is available, ``auto`` silently falls back to the
  NumPy kernels and records the reason (``native_status()``, surfaced
  by the CLI ``native-info`` subcommand).

The C accumulations iterate in index order (the main products of a row
in a register from +0.0, as ``np.bincount`` sums a bin), so every sum
reproduces ``np.bincount``/``np.add.at`` element order bit for bit —
the golden y/ledger/flops pins hold unchanged under the native backend.  The
partitioner kernels work on integer gains, counts and costs, or sum
float scores and gains in the NumPy loops' order, with the same
float64 balance arithmetic, tie-breaks and net order, so partitions
are identical on both backends; so are the s2D partitions, whose flip
loop keeps int64 loads and compares them in double as NumPy does.
"""

from repro.native import ops
from repro.native.build import (
    BACKENDS,
    CACHE_ENV,
    DEBUG_ENV,
    FLAG_ENV,
    SANITIZE_ENV,
    KernelLib,
    cache_dir,
    debug_bounds_enabled,
    find_compiler,
    get_kernels,
    native_status,
    resolve_backend,
    sanitize_default,
    set_default_backend,
)

__all__ = [
    "BACKENDS",
    "CACHE_ENV",
    "DEBUG_ENV",
    "FLAG_ENV",
    "SANITIZE_ENV",
    "KernelLib",
    "cache_dir",
    "debug_bounds_enabled",
    "find_compiler",
    "get_kernels",
    "native_status",
    "ops",
    "resolve_backend",
    "sanitize_default",
    "set_default_backend",
]
