"""Unit tests for repro.sparse.coo."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.kernels import stable_order
from repro.sparse.coo import (
    canonical_coo,
    coo_triplets,
    nnz_per_col,
    nnz_per_row,
)


def test_canonical_sorts_row_major():
    a = sp.coo_matrix(([1.0, 2.0, 3.0], ([2, 0, 2], [1, 3, 0])), shape=(3, 4))
    m = canonical_coo(a)
    assert m.row.tolist() == [0, 2, 2]
    assert m.col.tolist() == [3, 0, 1]


def test_canonical_sums_duplicates():
    a = sp.coo_matrix(([1.0, 2.0], ([1, 1], [2, 2])), shape=(3, 3))
    m = canonical_coo(a)
    assert m.nnz == 1
    assert m.data[0] == 3.0


def test_canonical_drops_explicit_zeros():
    a = sp.coo_matrix(([0.0, 5.0], ([0, 1], [0, 1])), shape=(2, 2))
    m = canonical_coo(a)
    assert m.nnz == 1
    assert m.row[0] == 1


def test_canonical_does_not_mutate_input():
    a = sp.coo_matrix(([1.0, 2.0], ([1, 0], [0, 1])), shape=(2, 2))
    rows_before = a.row.copy()
    canonical_coo(a)
    assert np.array_equal(a.row, rows_before)


def test_canonical_accepts_dense_and_csr():
    d = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert canonical_coo(d).nnz == 2
    assert canonical_coo(sp.csr_matrix(d)).nnz == 2


def test_coo_triplets_types():
    rows, cols, vals = coo_triplets(sp.eye(4))
    assert rows.dtype == np.int64
    assert cols.dtype == np.int64
    assert len(vals) == 4


def test_nnz_per_row_and_col():
    a = sp.coo_matrix(([1.0] * 4, ([0, 0, 1, 2], [0, 1, 1, 2])), shape=(4, 3))
    assert nnz_per_row(a).tolist() == [2, 1, 1, 0]
    assert nnz_per_col(a).tolist() == [1, 2, 1]


def test_nnz_per_row_counts_after_dedup():
    a = sp.coo_matrix(([1.0, -1.0], ([0, 0], [0, 0])), shape=(1, 1))
    # duplicates sum to zero -> eliminated -> empty row
    assert nnz_per_row(a).tolist() == [0]


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (10, 10)])
def test_canonical_shape_preserved(shape):
    a = sp.random(*shape, density=0.5, random_state=0)
    assert canonical_coo(a).shape == shape


# ----------------------------------------------------------------------
# Byte identity with a reference built from scipy's own steps
# (sum_duplicates, eliminate_zeros, a row-major lexsort).


def _three_step(a) -> sp.coo_matrix:
    m = sp.coo_matrix(a)
    m.sum_duplicates()
    m.eliminate_zeros()
    order = np.lexsort((m.col, m.row))
    return sp.coo_matrix((m.data[order], (m.row[order], m.col[order])), shape=m.shape)


def _assert_same_bytes(got, want):
    assert got.shape == want.shape
    for name in ("row", "col", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name


# Values whose sums exercise cancellation to 0, -0.0, NaN and rounding
# that depends on summation order.
_VALUES = np.array([1.0, -1.0, 0.1, 1e16, -1e16, 0.0, -0.0, np.nan, 3.25])


def _random_coo(rng, shape, nnz, index_dtype, value_dtype):
    m, n = shape
    rows = rng.integers(0, max(m, 1), size=nnz if m and n else 0).astype(index_dtype)
    cols = rng.integers(0, max(n, 1), size=rows.size).astype(index_dtype)
    if np.issubdtype(value_dtype, np.integer):
        vals = rng.integers(-2, 3, size=rows.size).astype(value_dtype)
    else:
        vals = rng.choice(_VALUES, size=rows.size).astype(value_dtype)
    return sp.coo_matrix((vals, (rows, cols)), shape=shape)


def _unsorted_csr(rng, shape, nnz):
    """A CSR whose column indices are shuffled within each row (and may
    repeat)."""
    coo = _random_coo(rng, shape, nnz, np.int32, np.float64)
    csr = sp.csr_matrix((coo.data, (coo.row, coo.col)), shape=shape)
    indices = csr.indices.copy()
    for r in range(shape[0]):
        lo, hi = csr.indptr[r], csr.indptr[r + 1]
        indices[lo:hi] = rng.permutation(indices[lo:hi])
    out = sp.csr_matrix((csr.data.copy(), indices, csr.indptr.copy()), shape=shape)
    out.has_sorted_indices = False
    return out


_SHAPES = [(0, 0), (0, 5), (5, 0), (1, 1), (6, 4), (4, 9), (30, 30)]


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("value_dtype", [np.float64, np.float32, np.int64])
def test_matches_three_step_on_random_coo(shape, index_dtype, value_dtype):
    rng = np.random.default_rng([*shape, np.dtype(index_dtype).num, np.dtype(value_dtype).num])
    for trial in range(40):
        nnz = int(rng.integers(0, 3 * max(shape[0] * shape[1], 1) + 1))
        a = _random_coo(rng, shape, nnz, index_dtype, value_dtype)
        _assert_same_bytes(canonical_coo(a), _three_step(a))


@pytest.mark.parametrize("shape", [(1, 1), (6, 4), (4, 9), (30, 30)])
def test_matches_three_step_on_unsorted_csr(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for trial in range(40):
        nnz = int(rng.integers(0, 2 * shape[0] * shape[1] + 1))
        a = _unsorted_csr(rng, shape, nnz)
        _assert_same_bytes(canonical_coo(a), _three_step(a))


def test_matches_three_step_on_dense_and_canonical_input():
    rng = np.random.default_rng(7)
    for trial in range(40):
        d = rng.choice(_VALUES, size=(7, 5))
        _assert_same_bytes(canonical_coo(d), _three_step(d))
        c = canonical_coo(_random_coo(rng, (7, 5), 20, np.int64, np.float64))
        _assert_same_bytes(canonical_coo(c), _three_step(c))
        csr = sp.csr_matrix(d)
        _assert_same_bytes(canonical_coo(csr), _three_step(csr))


def test_cancelling_duplicates_negative_zero_and_nan():
    rows = np.array([2, 0, 2, 1, 1, 0, 0], dtype=np.int64)
    cols = np.array([1, 0, 1, 1, 1, 2, 2], dtype=np.int64)
    vals = np.array([1.0, -0.0, -1.0, np.nan, 1.0, 0.0, 4.0])
    a = sp.coo_matrix((vals, (rows, cols)), shape=(3, 3))
    m = canonical_coo(a)
    _assert_same_bytes(m, _three_step(a))
    assert list(zip(m.row.tolist(), m.col.tolist())) == [(0, 2), (1, 1)]
    assert m.data[0] == 4.0 and np.isnan(m.data[1])


# ----------------------------------------------------------------------
# Aliasing: results are read-only, the input is never touched.


def _writeable_flags(a):
    return [x.flags.writeable for x in (a.row, a.col, a.data)]


@pytest.mark.parametrize("sorted_input", [True, False])
def test_result_is_a_new_read_only_matrix(sorted_input):
    rows = [0, 1, 2] if sorted_input else [2, 0, 1]
    a = sp.coo_matrix(([1.0, 2.0, 3.0], (rows, [0, 1, 2])), shape=(3, 3))
    data_before = a.data.copy()
    m = canonical_coo(a)
    assert m is not a
    assert _writeable_flags(a) == [True, True, True]
    assert _writeable_flags(m) == [False, False, False]
    with pytest.raises(ValueError):
        m.data[0] = 9.0
    m.data = np.zeros(3)
    assert np.array_equal(a.data, data_before)


def test_read_only_input_keeps_its_flags_and_is_shared():
    m = canonical_coo(sp.random(12, 9, density=0.3, random_state=3))
    again = canonical_coo(m)
    assert again is not m
    assert _writeable_flags(m) == [False, False, False]
    for name in ("row", "col", "data"):
        assert np.shares_memory(getattr(again, name), getattr(m, name))


def test_result_over_caller_memory_is_checked_again_when_passed_back():
    """Read-only views of the caller's writeable arrays are shared, so
    the caller can still change the result's entries; passing it back
    must check it again rather than trust it."""
    row = np.array([0, 1, 2], dtype=np.int32)
    col = np.array([0, 1, 2], dtype=np.int32)
    data = np.array([1.0, 2.0, 3.0])
    views = [x.view() for x in (row, col, data)]
    for v in views:
        v.flags.writeable = False
    m = canonical_coo(sp.coo_matrix((views[2], (views[0], views[1])), shape=(3, 3)))
    assert np.shares_memory(m.row, row) and np.shares_memory(m.data, data)
    row[:] = [2, 1, 0]
    data[1] = 0.0
    again = canonical_coo(m)
    assert again.row.tolist() == [0, 2] and again.col.tolist() == [2, 0]
    assert again.data.tolist() == [3.0, 1.0]


def test_writeable_csr_input_is_copied_not_frozen():
    a = sp.random(12, 9, density=0.3, random_state=4, format="csr")
    assert a.has_sorted_indices
    m = canonical_coo(a)
    assert a.data.flags.writeable and a.indices.flags.writeable
    assert not np.shares_memory(m.data, a.data)
    assert not np.shares_memory(m.col, a.indices)


def test_partition_matrix_rejects_in_place_writes(small_square):
    from repro.engine import PartitionEngine

    plan = PartitionEngine(small_square).plan("1d-rowwise", 3)
    with pytest.raises(ValueError):
        plan.partition.matrix.data[0] = 1.0


# ----------------------------------------------------------------------
# The trace counts real sorts only.


def test_sort_counter_counts_only_non_canonical_input():
    unsorted = sp.coo_matrix(([1.0, 2.0], ([1, 0], [0, 1])), shape=(2, 2))
    with obs.tracing() as tr:
        m = canonical_coo(unsorted)
        canonical_coo(m)
        canonical_coo(m.tocsr())
        canonical_coo(m.toarray())
    assert tr.total_counters() == {"sparse.canonical_sorts": 1}


def test_traced_table2_sorts_once_per_suite_matrix():
    from repro.experiments import ExperimentConfig
    from repro.experiments.tables import run_table2

    with obs.tracing() as tr:
        res = run_table2(ExperimentConfig(scale="tiny"))
    assert len({r["name"] for r in res.records}) == 8
    assert tr.total_counters().get("sparse.canonical_sorts") == 8


def test_engine_on_sorted_csr_laplacian_never_sorts():
    from repro.engine import PartitionEngine
    from repro.generators.mesh import knn_mesh

    w = sp.csr_matrix(knn_mesh(300, 6, dim=2, seed=1))
    w.data[:] = 1.0
    lap = (sp.diags(np.asarray(w.sum(axis=1)).ravel() + 1e-3) - w).tocsr()
    assert lap.has_sorted_indices
    with obs.tracing() as tr:
        engine = PartitionEngine(lap)
        engine.compiled_plan(engine.plan("s2d-heuristic", 16))
    assert tr.total_counters().get("sparse.canonical_sorts", 0) == 0


# ---------------------------------------------------------------------------
# stable_order: the radix ordering kernel behind canonicalization
# ---------------------------------------------------------------------------

_BOUNDS = (1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**32 + 1)
_KEY_DTYPES = (np.int32, np.int64, np.uint16, np.uint32)


@pytest.mark.parametrize("bound", _BOUNDS)
@pytest.mark.parametrize("dtype", _KEY_DTYPES)
@pytest.mark.parametrize("n", (0, 1, 1000))
def test_stable_order_equals_stable_argsort(bound, dtype, n):
    rng = np.random.default_rng(bound % 997 + n)
    top = min(bound, int(np.iinfo(dtype).max) + 1)
    cases = [
        rng.integers(0, top, size=n).astype(dtype),
        np.full(n, top - 1, dtype=dtype),  # all keys equal, at the top
        np.zeros(n, dtype=dtype),  # all keys equal, at zero
    ]
    if n > 1:  # few distinct keys: long runs of ties
        cases.append(rng.choice([0, top - 1, top // 2], size=n).astype(dtype))
    for keys in cases:
        got = stable_order(keys, bound)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.argsort(keys, kind="stable"))


@pytest.mark.parametrize(
    "keys, bound",
    [
        (np.array([0, -1, 2]), 3),
        (np.array([0, 3, 2]), 3),
        (np.array([1]), 1),
        (np.array([0]), 0),
        (np.array([5, 2**16]), 2**16),
        (np.array([0.0, 1.0]), 2),
    ],
)
def test_stable_order_rejects_keys_outside_the_bound(keys, bound):
    with pytest.raises(ValueError):
        stable_order(keys, bound)


def test_canonical_sums_duplicates_in_input_order():
    rng = np.random.default_rng(11)
    shape = (70_000, 300)  # two radix passes over rows, one over columns
    rows = rng.integers(0, shape[0], size=400)
    cols = rng.integers(0, shape[1], size=400)
    # Four copies of one entry, scattered, with values whose float sum
    # depends on the order of addition.
    dup = np.array([3, 97, 211, 388])
    rows[dup], cols[dup] = 123, 45
    vals = rng.standard_normal(400)
    vals[dup] = [1e16, 1.0, -1e16, 1.0]
    perm = rng.permutation(400)
    rows, cols, vals = rows[perm], cols[perm], vals[perm]

    got = canonical_coo(sp.coo_matrix((vals, (rows, cols)), shape=shape))

    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    first = np.ones(r.size, dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(v, starts)
    keep = sums != 0
    np.testing.assert_array_equal(got.row, r[starts][keep])
    np.testing.assert_array_equal(got.col, c[starts][keep])
    assert got.data.tobytes() == sums[keep].tobytes()
    # The check can fail: the same four values summed in reversed
    # order give another float.
    at = np.flatnonzero((got.row == 123) & (got.col == 45))
    run = vals[(rows == 123) & (cols == 45)]
    assert run.size == 4
    assert got.data[at].tolist() == np.add.reduceat(run, [0]).tolist()
    assert got.data[at].tolist() != np.add.reduceat(run[::-1], [0]).tolist()


def test_canonical_inputs_match_the_pinned_digests():
    """Canonical triplets and column-net models of the suite matrices,
    a k-NN mesh and an R-MAT graph are bit-identical to the fixture."""
    from tests import golden_canonical

    assert golden_canonical.check() == []
