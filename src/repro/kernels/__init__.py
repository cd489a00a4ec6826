"""Shared array kernels used across the analytics and partitioner layers.

Small, allocation-light building blocks that several subsystems need:
the batched block analytics (:mod:`repro.sparse.blocks`), the simulated
SpMV executors (:mod:`repro.simulate`) and the vectorized multilevel
partitioner (:mod:`repro.hypergraph`).  Everything here operates on
plain NumPy arrays and is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupPlan",
    "concat_ranges",
    "concat_spans",
    "grouped_distinct_counts",
    "in_sorted",
    "pair_counts",
    "stable_order",
    "unique_ints",
]


def concat_spans(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Unchecked core of :func:`concat_ranges`.

    Every ``lens[i]`` must be strictly positive and there must be at
    least one span — hot paths that guarantee this (e.g. FM's critical
    nets all have ≥ 2 pins) skip the validation and filtering.
    """
    cum = np.cumsum(lens)
    # Within-segment offset = global position − segment start position.
    out = np.repeat(starts - (cum - lens), lens)
    out += np.arange(int(cum[-1]), dtype=np.int64)
    return out


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], ends[i])`` over all ``i``.

    The ragged-gather kernel: given CSR-style span boundaries it yields
    the flat index array selecting every spanned element, without a
    Python-level loop.  Empty spans contribute nothing.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lens = ends - starts
    if np.any(lens < 0):
        raise ValueError("range ends must not precede starts")
    nonempty = lens > 0
    if not np.all(nonempty):
        starts, lens = starts[nonempty], lens[nonempty]
    if lens.size == 0:
        return np.empty(0, dtype=np.int64)
    return concat_spans(starts, lens)


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in ``[0, bound)``.

    The one stable ordering kernel of the package.  A stable sort's
    permutation is fixed by the keys alone (ties keep input order), so
    any stable algorithm returns the same array; this one is a
    least-significant-digit radix sort over 16-bit digits.  Each pass
    is a stable ``argsort`` of one ``uint16`` digit, which NumPy runs
    as a linear-time radix sort, and there are ``ceil(log2(bound) /
    16)`` passes: one for any ``bound <= 65536``.  Multi-key orders are
    successive calls, least significant key first (``np.lexsort``
    semantics)::

        order = stable_order(minor, n_minor)
        order = order[stable_order(major[order], n_major)]

    Raises ``ValueError`` for non-integer keys or keys outside
    ``[0, bound)``.  Returns ``int64`` positions.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1 or not np.issubdtype(keys.dtype, np.integer):
        raise ValueError("stable_order needs a 1-D integer key array")
    bound = int(bound)
    if keys.size and (int(keys.min()) < 0 or int(keys.max()) >= bound):
        raise ValueError(f"stable_order keys must lie in [0, {bound})")
    top = bound - 1  # the largest admissible key: its bit length sets the pass count
    if keys.size == 0 or top < 1:
        return np.arange(keys.size, dtype=np.int64)
    order = np.argsort(keys.astype(np.uint16, copy=False), kind="stable")
    shift = 16
    while top >> shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _use_histogram(span: int, nitems: int) -> bool:
    """Shared histogram-vs-sort policy for integer-key kernels: one
    histogram pass wins while the key span stays within a constant
    factor of the item count (or about 1M bins)."""
    return span <= max(64 * nitems, 1 << 20)


@dataclass
class GroupPlan:
    """Sum by a fixed key array: ``build`` picks the branch once from
    the keys, ``apply`` sums each group's values in input order.

    - ``hist`` (dense key ranges): ``index`` holds the min-shifted keys,
      ``length`` the key span, ``take`` the surviving bins — one
      ``np.bincount`` pass, no sort;
    - ``scatter``: ``index`` holds the unique-inverse positions,
      ``length`` the group count — one ``np.add.at`` pass;
    - ``empty``: no keys; values pass through (they are empty too).
    """

    mode: str
    index: np.ndarray
    length: int
    take: np.ndarray | None = None

    @classmethod
    def build(cls, keys: np.ndarray) -> tuple["GroupPlan", np.ndarray]:
        """``(plan, unique_keys)`` for ``keys``, keys sorted ascending."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return cls("empty", keys.copy(), 0), keys.copy()
        kmin = int(keys.min())
        span = int(keys.max()) - kmin + 1
        if _use_histogram(span, keys.size):
            shifted = keys - kmin
            counts = np.bincount(shifted, minlength=span)
            take = np.flatnonzero(counts > 0)
            return cls("hist", shifted, span, take), take + kmin
        uniq, inv = np.unique(keys, return_inverse=True)
        return cls("scatter", inv, int(uniq.size)), uniq

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Per-group sums of ``values``, in ascending key order."""
        if self.mode == "empty":
            return values.copy()
        if self.mode == "hist":
            sums = np.bincount(self.index, weights=values, minlength=self.length)
            return sums[self.take]
        sums = np.zeros(self.length, dtype=values.dtype)
        np.add.at(sums, self.index, values)
        return sums


def in_sorted(haystack: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Boolean membership of each ``queries[i]`` in sorted ``haystack``.

    The searchsorted-join kernel: one binary-search pass replaces a
    per-element dict lookup loop.  ``haystack`` must be sorted ascending
    (``np.unique`` output qualifies); duplicates are allowed.
    """
    haystack = np.asarray(haystack)
    queries = np.asarray(queries)
    if haystack.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    pos = np.searchsorted(haystack, queries)
    pos[pos == haystack.size] = haystack.size - 1
    return haystack[pos] == queries


def pair_counts(
    src: np.ndarray, dst: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occurrence count of each distinct ``(src, dst)`` pair.

    Returns ``(src, dst, counts)`` sorted by ``(src, dst)``; both inputs
    must hold ids in ``[0, n)``.  This is the message-packet counting
    kernel of the SpMV executors: every item stream contributes one word
    to its (sender, receiver) packet.  The ``n²`` key domain is usually
    tiny next to the item count, so a histogram replaces the sort
    whenever it fits (same condition as :class:`GroupPlan`).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keys = src * np.int64(n) + dst
    span = int(n) * int(n)
    if keys.size and _use_histogram(span, keys.size):
        hist = np.bincount(keys, minlength=span)
        uniq = np.flatnonzero(hist)
        counts = hist[uniq]
    else:
        uniq, counts = np.unique(keys, return_counts=True)
    return uniq // n, uniq % n, counts


def unique_ints(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` for integer keys with a dense-range fastpath.

    Dense key ranges dedupe with one boolean scatter (no comparison
    sort, ``O(span + n)``); sparse ranges fall back to ``np.unique``.
    Both return the sorted distinct keys.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return keys.copy()
    kmin = int(keys.min())
    span = int(keys.max()) - kmin + 1
    if _use_histogram(span, keys.size):
        seen = np.zeros(span, dtype=bool)
        seen[keys - kmin] = True
        return np.flatnonzero(seen) + kmin
    return np.unique(keys)


def grouped_distinct_counts(
    group: np.ndarray, values: np.ndarray, nvalues: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct-``values`` count per distinct ``group`` id, in one pass.

    The shared counting kernel of the analytics layer: encode each
    ``(group, value)`` pair as ``group * (nvalues + 1) + value``,
    deduplicate once, and histogram the surviving pairs by group.
    Returns ``(groups, counts)`` with ``groups`` sorted ascending;
    groups with no pairs do not appear.
    """
    group = np.asarray(group, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    stride = np.int64(nvalues) + 1
    pairs = np.unique(group * stride + values)
    # ``pairs`` is sorted, so the group column is nondecreasing: count
    # runs with a boundary scan instead of a second sort.
    if pairs.size == 0:
        return pairs, pairs.copy()
    pair_groups = pairs // stride
    boundary = np.flatnonzero(pair_groups[1:] != pair_groups[:-1]) + 1
    starts = np.concatenate(([0], boundary, [pair_groups.size]))
    return pair_groups[starts[:-1]], np.diff(starts)
