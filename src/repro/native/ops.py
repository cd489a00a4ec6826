"""Array-level wrappers over the native kernel library's entries.

Every entry is a whole call: a :class:`~repro.runtime.CommPlan` apply
(made by the plan itself through :class:`repro.runtime.plan._NativeApply`
with the addresses :func:`addresses` checks and extracts), a whole
recursive bisection (:func:`partition_kway`), one V-cycle
(:func:`bisect`), one DM batch (:func:`block_dm`, :mod:`repro.dm.batch`)
or one run of Algorithm 1's flip rounds (:func:`s2d_flip`,
:mod:`repro.core.s2d`).  The partitioner's stage loops run only inside
the two drivers, which are the only partitioner.  The wrappers take plain CSR arrays rather than a ``Hypergraph`` and
the plan's grouping as the ``(index, length)`` pairs
:func:`compact_group` makes from a duck-typed group plan, so the
dependencies point one way (runtime → native, hypergraph → native;
lint rule ``REP007``).

The drivers port NumPy's PCG64 streams to C.  They take the
generator's state as six ``uint64`` words and advance them in place,
and record stage events only into a log the caller sizes
(:func:`kway_event_rows`, :func:`bisect_event_rows`) and passes while a
trace is open.  Each wrapper allocates the kernel's outputs and
workspace, and passes every array as a bare address after checking its
dtype, C-contiguity and alignment (``TypeError`` otherwise): no silent
conversion.  The drivers allocate their own scratch inside the call
and free it before returning; a failed allocation raises
:class:`MemoryError`.

Every call then checks the offsets, index bounds and sizes its kernel
relies on (for the drivers also that the two CSR directions are
transposes), raising :class:`~repro.errors.VerificationError` naming
the entry instead of letting the unchecked C loops go out of bounds.
The ``sanitize=True`` build catches what these checks cannot model.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.errors import VerificationError
from repro.kernels import stable_order

__all__ = [
    "addresses",
    "bisect",
    "bisect_event_rows",
    "block_dm",
    "compact_group",
    "kway_event_rows",
    "partition_kway",
    "s2d_flip",
]


def _validate(kernel: str, n: int, *index_specs) -> None:
    """Pre-call check: each ``(name, idx, bound, size)`` spec asserts
    ``idx`` is a size-``size`` int array into ``[0, bound)``
    (``bound=None`` checks the size only).  The kernels themselves check
    nothing, so this is the last line before their raw memory writes.
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


# ------------------------------------------------- bare-pointer entries
#
# Every entry takes bare addresses (build._PTR): a solve makes hundreds
# of applies, and ndpointer's per-array check cost more than some of
# the loops.  ``addresses`` makes the same check (dtype, C-contiguity,
# alignment) and raises before anything enters C.

_I8 = np.dtype(np.int8)
_I64 = np.dtype(np.int64)
_U64 = np.dtype(np.uint64)
_F64 = np.dtype(np.float64)


def _addr(kernel: str, name: str, a, dtype: np.dtype) -> int | None:
    if a is None:
        return None
    if (
        not isinstance(a, np.ndarray)
        or a.dtype != dtype
        or not a.flags.c_contiguous
        or not a.flags.aligned
    ):
        got = (
            f"{a.dtype}{'' if a.flags.c_contiguous else ', not C-contiguous'}"
            f"{'' if a.flags.aligned else ', misaligned'}"
            if isinstance(a, np.ndarray) else type(a).__name__
        )
        raise TypeError(
            f"native {kernel}: {name} must be a C-contiguous {dtype} array "
            f"at an aligned address (got {got})"
        )
    try:
        # The buffer protocol yields the address several times faster
        # than ``a.ctypes``; it refuses read-only and empty arrays.
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


def addresses(kernel: str, *specs) -> list[int | None]:
    """Data addresses of ``(name, array, dtype)`` specs, in order;
    :class:`TypeError` for an array of another dtype or layout, or one
    that is not aligned to its dtype.  A
    ``None`` array passes as a NULL pointer.

    An address does not keep its array alive: the caller must hold a
    reference to every array until the kernel returns.
    """
    return [_addr(kernel, name, a, dtype) for name, a, dtype in specs]


def _validate_offsets(kernel: str, name: str, offsets: np.ndarray, total: int) -> None:
    """Check that CSR ``offsets`` start at 0, never decrease
    and end at ``total``."""
    if (
        offsets.size == 0 or offsets[0] != 0 or offsets[-1] != total
        or np.any(np.diff(offsets) < 0)
    ):
        raise VerificationError(
            f"native {kernel}: {name} is not a monotone CSR offset array "
            f"from 0 to {total}"
        )


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
    _validate(
        "s2d_flip", nb,
        ("order", order, nb, nb),
        ("row_part", row_part, nparts, nb),
        ("col_part", col_part, nparts, nb),
        ("h_size", h_size, None, nb),
    )
    if nb and int(np.bincount(order, minlength=nb).min()) != 1:
        raise VerificationError(f"native s2d_flip: order is not a permutation of 0..{nb - 1}")
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


# ------------------------------------------------ recursive bisection
#
# The two driver entries run one V-cycle and the whole recursion.  They
# allocate their own scratch (freed before they return), take a PCG64
# generator's state as six uint64 words (state and increment, high and
# low; has_uint32; uinteger) and advance it in place, and write stage
# events into an optional log that the caller sizes with
# bisect_event_rows / kway_event_rows.

_DRIVER_ENOMEM, _DRIVER_ELOG = 1, 2  # kernels.c DRV_*; 0 is success


def bisect_event_rows(ninitial: int, max_levels: int) -> int:
    """Event-log rows of one V-cycle: one coarsen event, a match and a
    contract event per level tried (at most ``max_levels``), an initial
    and a refine event per trial and one projection refine event."""
    return 2 + 2 * max_levels + 2 * ninitial


def kway_event_rows(n: int, nparts: int, ninitial: int, max_levels: int) -> int:
    """Event-log rows of a ``partition_kway`` of ``n`` vertices into
    ``nparts`` parts: the split tree has ``nparts - 1`` inner nodes and
    the subproblems at one depth are disjoint sets of at least one
    vertex, so at most ``min(nparts - 1, n * depth)`` V-cycles run; one
    more row for the polish."""
    depth = (nparts - 1).bit_length()  # ceil(log2(nparts))
    return min(nparts - 1, n * depth) * bisect_event_rows(ninitial, max_levels) + 1


def _validate_transpose(kernel: str, xpins, pins, xnets, nets, n: int) -> None:
    """Check that ``(xnets, nets)`` is ``(xpins, pins)`` transposed, nets
    ascending per vertex: the drivers read both directions and size
    their scratch and gain buckets by one, so a mismatch overruns them."""
    net_of_pin = np.repeat(np.arange(xpins.size - 1, dtype=np.int64), np.diff(xpins))
    if not (
        np.array_equal(np.diff(xnets), np.bincount(pins, minlength=n))
        and np.array_equal(net_of_pin[stable_order(pins, n)], nets)
    ):
        raise VerificationError(
            f"native {kernel}: xnets/nets is not the transpose of xpins/pins — "
            f"refusing to enter the unchecked C loop over {n} vertices"
        )


def _driver_inputs(kernel, xpins, pins, xnets, nets, vweights, ncosts, rng_state,
                   events, rows: int) -> list[int]:
    """Check a driver's hypergraph, stream state and event log; return
    the addresses of the seven arrays before ``events``."""
    inputs = addresses(
        kernel,
        ("xpins", xpins, _I64), ("pins", pins, _I64), ("xnets", xnets, _I64),
        ("nets", nets, _I64), ("vweights", vweights, _I64), ("ncosts", ncosts, _I64),
        ("rng_state", rng_state, _U64),
    )
    n, nnets = xnets.size - 1, xpins.size - 1
    _validate_offsets(kernel, "xpins", xpins, pins.size)
    _validate_offsets(kernel, "xnets", xnets, nets.size)
    _validate(
        kernel, n,
        ("pins", pins, n, pins.size),
        ("nets", nets, nnets, nets.size),
        ("ncosts", ncosts, None, nnets),
        ("rng_state", rng_state, None, 6),
    )
    _validate_transpose(kernel, xpins, pins, xnets, nets, n)
    if vweights.ndim != 2 or vweights.shape[0] != n:
        raise VerificationError(
            f"native {kernel}: vweights must be ({n}, ncon), got {vweights.shape}"
        )
    if events is not None and not (
        events[0].shape[1:] == (3,) and events[1].shape[1:] == (2,)
        and events[0].shape[0] == events[1].shape[0] >= rows
    ):
        raise VerificationError(
            f"native {kernel}: the event log must hold {rows} rows of 3 and 2 "
            f"columns, got {events[0].shape} and {events[1].shape}"
        )
    return inputs


def _event_specs(kernel: str, events) -> tuple[int, list]:
    """``(rows, addresses)`` of an event log ``(ints, times)``; no log
    passes NULL pointers."""
    ints, times = events if events is not None else (None, None)
    rows = 0 if ints is None else ints.shape[0]
    return rows, addresses(kernel, ("ev_ints", ints, _I64), ("ev_times", times, _F64))


def _driver_status(kernel: str, status: int, rows: int) -> None:
    if status == _DRIVER_ENOMEM:
        raise MemoryError(f"native {kernel}: out of memory for the driver's scratch")
    if status == _DRIVER_ELOG:
        raise VerificationError(f"native {kernel}: the event log of {rows} rows overflowed")


def bisect(
    lib, *, xpins, pins, xnets, nets, vweights, ncosts, targets, epsilon: float,
    coarsen_to: int, ninitial: int, fm_passes: int, max_net_size: int,
    max_levels: int, stall_fraction: int, hash_mask: int, rng_state, events=None,
) -> tuple[np.ndarray, int, int]:
    """One V-cycle of :func:`repro.hypergraph.bisect.multilevel_bisect`.

    Both CSR directions of the hypergraph, its int64 ``(n, ncon)``
    ``vweights`` and ``ncosts``; ``targets`` is the float64 ``(2,
    ncon)`` side targets.  ``rng_state`` (six uint64 words) is advanced
    in place; ``events`` is ``None`` or an ``(ints (rows, 3), times
    (rows, 2))`` log of :func:`bisect_event_rows` rows.  Returns
    ``(part, cut, nevents)``: the int8 sides, the cut-net cost and the
    number of events written.
    """
    if ninitial < 1:
        raise VerificationError(f"native bisect: ninitial {ninitial} is below 1")
    *graph, state = _driver_inputs(
        "bisect", xpins, pins, xnets, nets, vweights, ncosts, rng_state, events,
        bisect_event_rows(ninitial, max_levels),
    )
    side_targets = addresses("bisect", ("targets", targets, _F64))
    n = xnets.size - 1
    _validate("bisect", n, ("targets", targets, None, 2 * vweights.shape[1]))
    part = np.empty(n, dtype=np.int8)
    cut = np.zeros(1, dtype=np.int64)
    count = np.zeros(1, dtype=np.int64)
    cap, log = _event_specs("bisect", events)
    status = lib.bisect(
        n, xpins.size - 1, vweights.shape[1], coarsen_to, ninitial, fm_passes,
        max_net_size, max_levels, stall_fraction, epsilon, hash_mask,
        *graph, *side_targets, state,
        *addresses("bisect", ("part", part, _I8), ("cut", cut, _I64)),
        cap, *log, *addresses("bisect", ("ev_count", count, _I64)),
    )
    _driver_status("bisect", status, cap)
    return part, int(cut[0]), int(count[0])


def partition_kway(
    lib, *, xpins, pins, xnets, nets, vweights, ncosts, nparts: int, eps_level: float,
    epsilon: float, coarsen_to: int, ninitial: int, fm_passes: int, max_net_size: int,
    kway_passes: int, max_levels: int, stall_fraction: int, hash_mask: int, rng_state,
    events=None, nthreads: int = 1,
) -> tuple[np.ndarray, int]:
    """The whole of :func:`repro.hypergraph.partition_kway`: recursive
    bisection into ``nparts`` parts, each V-cycle at tolerance
    ``eps_level``, then the K-way polish at ``epsilon``.

    Arguments as in :func:`bisect`; ``events`` holds
    :func:`kway_event_rows` rows.  The two sides of a split run on
    separate threads while ``nthreads`` allows; the parts, the final
    stream state and the events do not depend on ``nthreads``.
    Returns ``(part, nevents)``: the int64 parts and the number of
    events written.
    """
    if nparts < 1:
        raise VerificationError(f"native partition_kway: nparts {nparts} is below 1")
    n = xnets.size - 1
    *graph, state = _driver_inputs(
        "partition_kway", xpins, pins, xnets, nets, vweights, ncosts, rng_state,
        events, kway_event_rows(n, nparts, ninitial, max_levels),
    )
    part = np.empty(n, dtype=np.int64)
    count = np.zeros(1, dtype=np.int64)
    cap, log = _event_specs("partition_kway", events)
    status = lib.partition_kway(
        n, xpins.size - 1, vweights.shape[1], nparts, coarsen_to, ninitial, fm_passes,
        max_net_size, kway_passes, max_levels, stall_fraction, eps_level, epsilon,
        hash_mask, *graph, state,
        *addresses("partition_kway", ("part", part, _I64)),
        cap, *log, *addresses("partition_kway", ("ev_count", count, _I64)), nthreads,
    )
    _driver_status("partition_kway", status, cap)
    return part, int(count[0])
