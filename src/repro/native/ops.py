"""Array-level wrappers over the native kernel library.

Each SpMV function mirrors one NumPy formulation used by the serial
shard replay (:mod:`repro.runtime.shards`) and produces bit-identical
float64 results (same element order, same rounding — see
``kernels.c``).  All take the loaded
:class:`~repro.native.build.KernelLib` first; callers resolve the
backend and fetch the library once (per replay).  A whole
:class:`~repro.runtime.CommPlan` apply is one ``lib.plan_apply`` call
made by the plan itself, with the addresses :func:`addresses` checks
and extracts.

``group`` arguments are ``(index, length)`` pairs produced by
:func:`compact_group` from a duck-typed group plan with the
:class:`repro.kernels.GroupPlan` fields (``mode``, ``index``,
``length``, ``take``); this module deliberately does not import the
runtime, so the dependency points one way (runtime → native; lint rule
``REP007``).

:func:`fm_passes` (set-up included) and :func:`kway_passes` run the
partitioner's per-move loops, :func:`hcm_match`, :func:`contract`,
:func:`greedy_grow` and :func:`random_fill` its per-vertex and per-net
passes at the front of the V-cycle.  They take plain CSR arrays rather
than a ``Hypergraph`` for the same reason (hypergraph → native) and
leave the same state as the NumPy code in
:mod:`repro.hypergraph.refine`, :mod:`repro.hypergraph.kway`,
:mod:`repro.hypergraph.coarsen` and :mod:`repro.hypergraph.initial`.
:func:`block_dm` labels every block of a DM batch
(:mod:`repro.dm.batch`) and :func:`s2d_flip` runs Algorithm 1's flip
rounds (:mod:`repro.core.s2d`), over the same flat arrays as their NumPy
references.
Each wrapper allocates the kernel's outputs and workspace, and passes
every array as a bare address after checking its dtype and
C-contiguity (``TypeError`` otherwise): no silent conversion.

With ``REPRO_NATIVE_DEBUG=1`` (resolved by
:func:`repro.native.build.debug_bounds_enabled` — the flag is never
read here) every wrapper validates its index arrays and size contracts
*before* crossing the ctypes boundary, raising
:class:`~repro.errors.VerificationError` instead of letting the C
loops write out of bounds.  This is the pure-Python complement of the
``sanitize=True`` build: the sanitizer catches what validation cannot
model, validation gives exact array-level diagnostics the sanitizer
cannot phrase.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.errors import VerificationError
from repro.native import build as _build

__all__ = [
    "addresses",
    "block_dm",
    "compact_group",
    "contract",
    "fm_passes",
    "fused_group_gather",
    "greedy_grow",
    "group_apply",
    "hcm_match",
    "kway_passes",
    "random_fill",
    "s2d_flip",
    "scatter_products",
    "scatter_sum",
]


def _validate(kernel: str, n: int, *index_specs) -> None:
    """Debug-mode pre-call validator: each ``(name, idx, bound, size)``
    spec asserts ``idx`` is a size-``size`` int array into ``[0, bound)``
    (``bound=None`` checks the size only).

    Runs only under ``REPRO_NATIVE_DEBUG=1``; the kernels themselves
    perform no checks (that is what makes them fast), so this is the
    last line before raw shared-memory writes.
    """
    for name, idx, bound, size in index_specs:
        idx = np.asarray(idx)
        if idx.size != size:
            raise VerificationError(
                f"native {kernel}: {name} has {idx.size} entries, "
                f"expected {size}"
            )
        if bound is None:
            continue
        if idx.size and not (int(idx.min()) >= 0 and int(idx.max()) < bound):
            raise VerificationError(
                f"native {kernel}: {name} indexes outside [0, {bound}) "
                f"(min {idx.min()}, max {idx.max()}) — refusing to enter "
                f"the unchecked C loop over {n} items"
            )


def _validate_permutation(kernel: str, name: str, order: np.ndarray, n: int) -> None:
    """Debug-mode check that ``order`` (already bounds- and
    size-checked by :func:`_validate`) lists every id in ``[0, n)``."""
    if n and int(np.bincount(order, minlength=n).min()) != 1:
        raise VerificationError(
            f"native {kernel}: {name} is not a permutation of 0..{n - 1}"
        )


def _f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def compact_group(gp) -> tuple[np.ndarray, int]:
    """Densify a group plan to ``(index, n_groups)`` for the C kernels.

    Hist-mode plans scatter into a key-*span*-sized accumulator and
    gather the surviving bins afterwards (``sums[take]``) — fine for
    one ``np.bincount`` call, but for the native path the span alloc
    (often 10× the item count) and the take gather dominate.  Ranking
    each key among the surviving bins (``searchsorted(take, index)``)
    lets the kernel scatter straight into a dense ``take.size``
    accumulator with no post-gather.  Bit-identity is preserved: the
    elements of each output group still accumulate in exactly the same
    input order, so every per-group sum performs the identical FP
    additions.  Scatter-mode indices are already dense.  Precompute
    once per plan (this is O(n log n)); applies then reuse the pair.
    """
    if gp.mode == "hist":
        return _i64(np.searchsorted(gp.take, gp.index)), int(gp.take.size)
    return _i64(gp.index), int(gp.length)


def fused_group_gather(lib, group, vals, cols, x) -> np.ndarray:
    """``gp.apply(vals * x[cols])`` without the two temporaries."""
    idx, length = group
    if _build.debug_bounds_enabled():
        _validate(
            "gather_mul_scatter", vals.size,
            ("cols", cols, x.size, vals.size),
            ("group index", idx, length, vals.size),
        )
    acc = np.zeros(length)
    lib.gather_mul_scatter(vals.size, _f64(vals), _i64(cols), _f64(x), idx, acc)
    return acc


def group_apply(lib, group, values) -> np.ndarray:
    """``gp.apply(values)``: one index-order scatter-add pass."""
    idx, length = group
    if _build.debug_bounds_enabled():
        _validate(
            "scatter_add", values.size,
            ("group index", idx, length, values.size),
        )
    acc = np.zeros(length)
    lib.scatter_add(values.size, idx, _f64(values), acc)
    return acc


def scatter_products(lib, rows, vals, cols, x, nrows: int) -> np.ndarray:
    """``np.bincount(rows, weights=vals * x[cols], minlength=nrows)``."""
    if _build.debug_bounds_enabled():
        _validate(
            "gather_mul_scatter", vals.size,
            ("rows", rows, nrows, vals.size),
            ("cols", cols, x.size, vals.size),
        )
    y = np.zeros(nrows)
    lib.gather_mul_scatter(vals.size, _f64(vals), _i64(cols), _f64(x), _i64(rows), y)
    return y


def scatter_sum(lib, rows, values, nrows: int) -> np.ndarray:
    """``np.bincount(rows, weights=values, minlength=nrows)``."""
    if _build.debug_bounds_enabled():
        _validate(
            "scatter_add", values.size,
            ("rows", rows, nrows, values.size),
        )
    out = np.zeros(nrows)
    lib.scatter_add(values.size, _i64(rows), _f64(values), out)
    return out


# ------------------------------------------------- bare-pointer kernels
#
# The plan apply and the partitioner kernels take bare addresses
# (build._PTR): a solve makes hundreds of applies, the V-cycle
# thousands of calls with up to 14 arrays each, and ndpointer's
# per-array check cost more than some of the loops.  ``addresses``
# makes the same check (dtype, C-contiguity) and raises before anything
# enters C.

_I8 = np.dtype(np.int8)
_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)
_BOOL = np.dtype(np.bool_)


def _addr(kernel: str, name: str, a, dtype: np.dtype) -> int | None:
    if a is None:
        return None
    if not isinstance(a, np.ndarray) or a.dtype != dtype or not a.flags.c_contiguous:
        got = (
            f"{a.dtype}{'' if a.flags.c_contiguous else ', not C-contiguous'}"
            if isinstance(a, np.ndarray) else type(a).__name__
        )
        raise TypeError(
            f"native {kernel}: {name} must be a C-contiguous {dtype} array (got {got})"
        )
    try:
        # The buffer protocol yields the address several times faster
        # than ``a.ctypes``; it refuses read-only and empty arrays.
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


def addresses(kernel: str, *specs) -> list[int | None]:
    """Data addresses of ``(name, array, dtype)`` specs, in order;
    :class:`TypeError` for an array of another dtype or layout.  A
    ``None`` array passes as a NULL pointer.

    An address does not keep its array alive: the caller must hold a
    reference to every array until the kernel returns.
    """
    return [_addr(kernel, name, a, dtype) for name, a, dtype in specs]


def _validate_offsets(kernel: str, name: str, offsets: np.ndarray, total: int) -> None:
    """Debug-mode check that CSR ``offsets`` start at 0, never decrease
    and end at ``total``."""
    if (
        offsets.size == 0 or offsets[0] != 0 or offsets[-1] != total
        or np.any(np.diff(offsets) < 0)
    ):
        raise VerificationError(
            f"native {kernel}: {name} is not a monotone CSR offset array "
            f"from 0 to {total}"
        )


def fm_passes(
    lib, *, xpins, pins, ncosts, vipt, vnets, vweights, targets, epsilon: float,
    part, gmax: int, max_passes: int, stall_fraction: int,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`repro.hypergraph.refine.fm_refine` after its context: the
    state set-up and the FM pass loop.

    ``part`` (int8, 0/1) is refined in place.  ``vipt``/``vnets`` is the
    CSR vertex → nets-of-two-or-more-pins adjacency, ``vweights`` the
    int64 ``(n, ncon)`` weights, ``targets`` the float64 ``(2, ncon)``
    side targets (side ``s`` may carry ``targets[s] * (1 + epsilon)``)
    and ``gmax`` the largest sum of a vertex's valid net costs.  Returns
    ``(cut, pc, gain, pw)``: the final cut, int64 ``(nnets, 2)`` pin
    counts, int64 move gains and float64 ``(2, ncon)`` side weights —
    the set-up state when ``max_passes`` is 0.
    """
    n, ncon = vweights.shape
    nnets = ncosts.size
    if _build.debug_bounds_enabled():
        _validate(
            "fm_passes", n,
            ("xpins", xpins, pins.size + 1, nnets + 1),
            ("pins", pins, n, pins.size),
            ("vipt", vipt, vnets.size + 1, n + 1),
            ("vnets", vnets, nnets, vnets.size),
            ("part", part, 2, n),
            ("targets", targets, None, 2 * ncon),
        )
        csum = np.concatenate(([0], np.cumsum(ncosts[vnets])))
        if n and int((csum[vipt[1:]] - csum[vipt[:-1]]).max()) > gmax:
            raise VerificationError(
                f"native fm_passes: gmax {gmax} is below a vertex's valid "
                "net-cost sum — some gain would have no bucket"
            )
    pc = np.empty((nnets, 2), dtype=np.int64)
    gain = np.empty(n, dtype=np.int64)
    pw = np.empty((2, ncon))
    iwork = np.empty(2 * gmax + 1 + 7 * n + 2 * ncon, dtype=np.int64)
    dwork = np.empty((n + 2) * ncon)
    bwork = np.empty(3 * n + 2 * ncon, dtype=np.int8)
    cut = lib.fm_passes(
        n, nnets, ncon, gmax, max_passes, stall_fraction, epsilon,
        *addresses(
            "fm_passes",
            ("xpins", xpins, _I64), ("pins", pins, _I64), ("ncosts", ncosts, _I64),
            ("vipt", vipt, _I64), ("vnets", vnets, _I64),
            ("vweights", vweights, _I64), ("targets", targets, _F64),
            ("part", part, _I8), ("pc", pc, _I64), ("gain", gain, _I64),
            ("pw", pw, _F64), ("iwork", iwork, _I64), ("dwork", dwork, _F64),
            ("bwork", bwork, _I8),
        ),
    )
    return int(cut), pc, gain, pw


def kway_passes(
    lib, *, xnets, nets, vipt, vnets, ncosts, wfloat, limit, part, pc, pw,
    max_passes: int,
) -> None:
    """The greedy passes of :func:`repro.hypergraph.kway.kway_greedy_refine`.

    ``part`` (int64), ``pc`` (int64 ``(nnets, nparts)`` pin counts) and
    ``pw`` (float64 ``(nparts, ncon)`` part weights) are updated in
    place; ``xnets``/``nets`` is the CSR vertex → net incidence and
    ``vipt``/``vnets`` its nets of two or more pins.
    """
    n, (nnets, nparts), ncon = part.size, pc.shape, pw.shape[1]
    if _build.debug_bounds_enabled():
        _validate(
            "kway_passes", n,
            ("xnets", xnets, nets.size + 1, n + 1),
            ("nets", nets, nnets, nets.size),
            ("vipt", vipt, vnets.size + 1, n + 1),
            ("vnets", vnets, nnets, vnets.size),
            ("part", part, nparts, n),
            ("ncosts", ncosts, None, nnets),
            ("pw", pw, None, nparts * ncon),
            ("wfloat", wfloat, None, n * ncon),
            ("limit", limit, None, ncon),
        )
    gains = np.empty(nparts, dtype=np.int64)
    cut = np.empty(nnets, dtype=np.int8)
    lib.kway_passes(
        n, nnets, nparts, ncon, max_passes,
        *addresses(
            "kway_passes",
            ("xnets", xnets, _I64), ("nets", nets, _I64), ("vipt", vipt, _I64),
            ("vnets", vnets, _I64), ("ncosts", ncosts, _I64),
            ("wfloat", wfloat, _F64), ("limit", limit, _F64), ("part", part, _I64),
            ("pc", pc, _I64), ("pw", pw, _F64), ("gains", gains, _I64),
            ("cut", cut, _I8),
        ),
    )


def _incidence(kernel, n, xpins, pins, xnets, nets, valid, contrib) -> tuple:
    """Debug-validate the two-way CSR incidence plus the per-net
    ``valid`` (0/1) and ``contrib`` arrays of the front-half kernels,
    and return their address specs."""
    nnets = xpins.size - 1
    if _build.debug_bounds_enabled():
        _validate(
            kernel, n,
            ("xpins", xpins, pins.size + 1, nnets + 1),
            ("pins", pins, n, pins.size),
            ("xnets", xnets, nets.size + 1, n + 1),
            ("nets", nets, nnets, nets.size),
            ("valid", valid, 2, nnets),
            ("contrib", contrib, None, nnets),
        )
    return (
        ("xpins", xpins, _I64), ("pins", pins, _I64), ("xnets", xnets, _I64),
        ("nets", nets, _I64), ("valid", valid, _I8), ("contrib", contrib, _F64),
    )


def _as_int8(valid):
    """A bool mask viewed as the kernels' 0/1 int8 (no copy)."""
    return valid.view(np.int8) if getattr(valid, "dtype", None) == _BOOL else valid


def hcm_match(lib, *, xpins, pins, xnets, nets, valid, contrib, order) -> np.ndarray:
    """The matching loop of :func:`repro.hypergraph.coarsen.coarsen_once`.

    ``xpins``/``pins`` and ``xnets``/``nets`` are the two CSR directions
    of the incidence; ``valid`` (bool or 0/1 int8) marks the scoring
    nets and ``contrib`` holds each one's per-pin share
    ``cost / (|e| − 1)``; ``order`` is the visitation permutation.
    Returns ``mate`` (int64, ``-1`` for an unmatched vertex).
    """
    n = xnets.size - 1
    valid = _as_int8(valid)
    incidence = _incidence("hcm_match", n, xpins, pins, xnets, nets, valid, contrib)
    if _build.debug_bounds_enabled():
        _validate("hcm_match", n, ("order", order, n, n))
        _validate_permutation("hcm_match", "order", order, n)
    mate = np.full(n, -1, dtype=np.int64)
    acc, touched = np.empty(n), np.empty(n, dtype=np.int64)
    mark = np.zeros(n, dtype=np.int8)
    lib.hcm_match(
        n,
        *addresses(
            "hcm_match", *incidence, ("order", order, _I64), ("mate", mate, _I64),
            ("acc", acc, _F64), ("touched", touched, _I64), ("mark", mark, _I8),
        ),
    )
    return mate


def greedy_grow(
    lib, *, xpins, pins, xnets, nets, valid, contrib, vweights, t0, seed_order,
) -> np.ndarray:
    """:func:`repro.hypergraph.initial.greedy_growing` after its set-up.

    Incidence arguments as in :func:`hcm_match`; ``vweights`` is the
    int64 ``(n, ncon)`` weight matrix, ``t0`` part 0's float64 target
    and ``seed_order`` the reseeding permutation.  Returns the 0/1
    part array (int8).
    """
    n, ncon = vweights.shape
    valid = _as_int8(valid)
    incidence = _incidence("greedy_grow", n, xpins, pins, xnets, nets, valid, contrib)
    if _build.debug_bounds_enabled():
        _validate(
            "greedy_grow", n,
            ("t0", t0, None, ncon),
            ("seed_order", seed_order, n, n),
        )
        _validate_permutation("greedy_grow", "seed_order", seed_order, n)
    part = np.ones(n, dtype=np.int8)
    gain, heap = np.zeros(n), np.empty(n, dtype=np.int64)
    pos, state = np.full(n, -1, dtype=np.int64), np.zeros(n, dtype=np.int8)
    pw0 = np.zeros(ncon)
    lib.greedy_grow(
        n, ncon,
        *addresses(
            "greedy_grow", *incidence, ("vweights", vweights, _I64), ("t0", t0, _F64),
            ("seed_order", seed_order, _I64), ("part", part, _I8), ("gain", gain, _F64),
            ("heap", heap, _I64), ("pos", pos, _I64), ("state", state, _I8),
            ("pw0", pw0, _F64),
        ),
    )
    return part


def random_fill(lib, *, vweights, t0, order) -> np.ndarray:
    """:func:`repro.hypergraph.initial.random_bisection`'s fill loop:
    returns the 0/1 part array (int8) for visitation permutation
    ``order``, int64 ``(n, ncon)`` ``vweights`` and float64 target
    ``t0``."""
    n, ncon = vweights.shape
    if _build.debug_bounds_enabled():
        _validate(
            "random_fill", n,
            ("t0", t0, None, ncon),
            ("order", order, n, n),
        )
        _validate_permutation("random_fill", "order", order, n)
    part = np.ones(n, dtype=np.int8)
    pw0 = np.zeros(ncon, dtype=np.int64)
    lib.random_fill(
        n, ncon,
        *addresses(
            "random_fill", ("vweights", vweights, _I64), ("t0", t0, _F64),
            ("order", order, _I64), ("part", part, _I8), ("pw0", pw0, _I64),
        ),
    )
    return part


def contract(
    lib, *, xpins, pins, ncosts, vweights, mate, hash_mask: int,
) -> tuple[np.ndarray, dict]:
    """:func:`repro.hypergraph.coarsen.coarsen_once` after the matching:
    cluster ids and the coarse hypergraph.

    ``mate`` is the symmetric int64 matching (``-1``: unmatched) of the
    hypergraph ``(xpins, pins, ncosts, vweights)``; ``hash_mask`` is
    ANDed into both content hashes.  Returns ``(cmap, coarse)`` where
    ``coarse`` maps ``xpins``, ``pins``, ``vweights``, ``ncosts``,
    ``xnets`` and ``nets`` to the coarse arrays (each vertex's nets in
    ascending order).  The kernel writes into buffers sized for the fine
    hypergraph; only their used prefixes are kept.
    """
    n, ncon = vweights.shape
    nnets, npins = ncosts.size, pins.size
    if _build.debug_bounds_enabled():
        _validate(
            "contract", n,
            ("xpins", xpins, npins + 1, nnets + 1),
            ("pins", pins, n, npins),
            ("mate + 1", mate + 1, n + 1, n),
        )
        _validate_offsets("contract", "xpins", xpins, npins)
        matched = np.flatnonzero(mate >= 0)
        if np.any(mate[mate[matched]] != matched):
            raise VerificationError("native contract: mate is not a symmetric matching")
    cmap = np.empty(n, dtype=np.int64)
    cvweights = np.empty((n, ncon), dtype=np.int64)
    cxpins = np.empty(nnets + 1, dtype=np.int64)
    cpins = np.empty(npins, dtype=np.int64)
    ccosts = np.empty(nnets, dtype=np.int64)
    cxnets = np.empty(n + 1, dtype=np.int64)
    cnets = np.empty(npins, dtype=np.int64)
    counts = np.empty(3, dtype=np.int64)
    iwork = np.empty(2 * n + 1 + 2 * npins + 12 * nnets, dtype=np.int64)
    lib.contract(
        n, nnets, ncon, hash_mask,
        *addresses(
            "contract",
            ("xpins", xpins, _I64), ("pins", pins, _I64), ("ncosts", ncosts, _I64),
            ("vweights", vweights, _I64), ("mate", mate, _I64), ("cmap", cmap, _I64),
            ("cvweights", cvweights, _I64), ("cxpins", cxpins, _I64),
            ("cpins", cpins, _I64), ("ccosts", ccosts, _I64), ("cxnets", cxnets, _I64),
            ("cnets", cnets, _I64), ("counts", counts, _I64), ("iwork", iwork, _I64),
        ),
    )
    nc, ncnets, ncpins = counts.tolist()
    return cmap, {
        "xpins": cxpins[: ncnets + 1].copy(),
        "pins": cpins[:ncpins].copy(),
        "vweights": cvweights[:nc].copy(),
        "ncosts": ccosts[:ncnets].copy(),
        "xnets": cxnets[: nc + 1].copy(),
        "nets": cnets[:ncpins].copy(),
    }


def block_dm(
    lib, *, row_off, col_off, rptr, adj, cptr, cadj,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coarse DM labels of every block of a batch (the per-block loop of
    :func:`repro.dm.batch.batched_block_dm`).

    Block ``b`` owns rows ``row_off[b]:row_off[b + 1]`` and columns
    ``col_off[b]:col_off[b + 1]``; ``rptr``/``adj`` is the row-major CSR
    adjacency over all rows and ``cptr``/``cadj`` the column-major one,
    both with block-local ids.  Returns ``(row_label, col_label,
    matching_size)``: int8 labels (0 H, 1 S, 2 V) over all rows and
    columns, and each block's matching size (int64).
    """
    nb = row_off.size - 1
    nrows, ncols = rptr.size - 1, cptr.size - 1
    if _build.debug_bounds_enabled():
        _validate_offsets("block_dm", "row_off", row_off, nrows)
        _validate_offsets("block_dm", "col_off", col_off, ncols)
        _validate_offsets("block_dm", "rptr", rptr, adj.size)
        _validate_offsets("block_dm", "cptr", cptr, cadj.size)
        if col_off.size != nb + 1 or np.any(rptr[row_off] != cptr[col_off]):
            raise VerificationError(
                "native block_dm: row and column offsets do not give every "
                "block the same edge span"
            )
        edges = np.diff(rptr[row_off])
        for name, ids, off in (("adj", adj, col_off), ("cadj", cadj, row_off)):
            bound = np.repeat(np.diff(off), edges)
            if ids.size and (int(ids.min()) < 0 or np.any(ids >= bound)):
                raise VerificationError(
                    f"native block_dm: {name} holds an id outside its block — "
                    f"refusing to enter the unchecked C loop over {nb} blocks"
                )
    maxr = int(np.diff(row_off).max()) if nb > 0 else 0
    maxc = int(np.diff(col_off).max()) if nb > 0 else 0
    row_label = np.empty(nrows, dtype=np.int8)
    col_label = np.empty(ncols, dtype=np.int8)
    matching_size = np.empty(nb, dtype=np.int64)
    iwork = np.empty(6 * maxr + 3 * maxc, dtype=np.int64)
    lib.block_dm(
        nb,
        *addresses(
            "block_dm",
            ("row_off", row_off, _I64), ("col_off", col_off, _I64),
            ("rptr", rptr, _I64), ("adj", adj, _I64), ("cptr", cptr, _I64),
            ("cadj", cadj, _I64), ("row_label", row_label, _I8),
            ("col_label", col_label, _I8), ("matching_size", matching_size, _I64),
            ("iwork", iwork, _I64),
        ),
    )
    return row_label, col_label, matching_size


def s2d_flip(
    lib, *, order, row_part, col_part, h_size, loads, w_lim: float, max_rounds: int,
) -> tuple[np.ndarray, int]:
    """The greedy rounds of :func:`repro.core.s2d.s2d_heuristic`.

    Visits blocks in ``order``; ``row_part``, ``col_part`` and
    ``h_size`` are per block, ``loads`` (int64, one per part) is updated
    in place.  Returns ``(chosen, rounds)``: the bool mask of flipped
    blocks and the number of rounds run.
    """
    nb, nparts = order.size, loads.size
    if _build.debug_bounds_enabled():
        _validate(
            "s2d_flip", nb,
            ("order", order, nb, nb),
            ("row_part", row_part, nparts, nb),
            ("col_part", col_part, nparts, nb),
            ("h_size", h_size, None, nb),
        )
        _validate_permutation("s2d_flip", "order", order, nb)
    chosen = np.zeros(nb, dtype=np.bool_)
    flags = chosen.view(np.int8)
    rounds = lib.s2d_flip(
        nb, nparts, max_rounds, float(w_lim),
        *addresses(
            "s2d_flip",
            ("order", order, _I64), ("row_part", row_part, _I64),
            ("col_part", col_part, _I64), ("h_size", h_size, _I64),
            ("loads", loads, _I64), ("chosen", flags, _I8),
        ),
    )
    return chosen, int(rounds)
