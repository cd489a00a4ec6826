"""Batched block analytics against the seed's per-block code, and the
native DM and flip kernels against their NumPy oracles.

`BlockStructure.block_stats` and `batched_block_dm` must give exactly
what the seed's one-``np.unique``-per-block statistics and
slice-per-block DM driver gave on every matrix family the paper uses.
That seed code is deleted; its outputs over the grid below are frozen in
``tests/fixtures/block_dm_seed.npz``:

- per matrix ``<name>``: the canonical triplets (``<name>/rows``,
  ``/cols``, ``/shape``);
- per ``<name>/k<K>``: the vector partition (``x_part``, ``y_part``),
  the seed's block statistics (``stats_keys`` … ``stats_mhat``) and its
  per-block DM over the off-diagonal blocks in key order: ``row_part``,
  ``col_part``, ``matching_size`` and the ``nnz``/``row``/``col``
  counts per block, then ``nnz_idx``, ``h_mask``, ``row_ids``,
  ``col_ids``, ``row_label`` and ``col_label`` concatenated.

The native DM kernel finds its own maximum matching; labels, H-masks
and matching sizes must still equal those of the Hopcroft–Karp oracle
in ``tests/dm_oracle.py`` bit for bit (they do not depend on which
maximum matching is used).
"""

import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.s2d import s2d_heuristic, s2d_optimal
from repro.dm.batch import BlockDMTable, batched_block_dm
from repro.engine import PartitionEngine
from repro.experiments.config import ExperimentConfig
from repro.generators.suite import table1_suite, table4_suite
from repro.kernels import grouped_distinct_counts
from repro.sparse.blocks import BlockStructure
from repro.sparse.coo import canonical_coo

from tests.comm_oracle import rowwise_volume
from tests.dm_oracle import coarse_dm, numpy_kernels
from tests.test_partitioner_native import FAMILIES

SEED_FIXTURE = pathlib.Path(__file__).with_name("fixtures") / "block_dm_seed.npz"
_SEED = dict(np.load(SEED_FIXTURE))
_NAMES = ("random", "rect", "mesh", "powerlaw", "rmat")


def _structures():
    for name in _NAMES:
        rows, cols = _SEED[f"{name}/rows"], _SEED[f"{name}/cols"]
        for k in (2, 5, 9):
            key = f"{name}/k{k}"
            yield name, k, BlockStructure(
                rows, cols, _SEED[f"{key}/x_part"], _SEED[f"{key}/y_part"], k
            )


def _on_each_backend(fn) -> dict:
    """``fn()`` on the C kernels (``"native"``) and on the NumPy
    oracles of ``tests/dm_oracle.py`` (``"numpy"``)."""
    out = {"native": fn()}
    with numpy_kernels():
        out["numpy"] = fn()
    return out


def _offsets(counts):
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


@pytest.mark.parametrize(
    "name,k,bs", list(_structures()), ids=lambda v: v if isinstance(v, str) else None
)
def test_block_stats_matches_legacy(name, k, bs):
    st = bs.block_stats()
    key = f"{name}/k{k}"
    for field in ("keys", "indptr", "nnz", "nhat", "mhat"):
        assert np.array_equal(getattr(st, field), _SEED[f"{key}/stats_{field}"]), field


@pytest.mark.parametrize(
    "name,k,bs", list(_structures()), ids=lambda v: v if isinstance(v, str) else None
)
def test_batched_dm_matches_legacy(name, k, bs):
    key = f"{name}/k{k}"
    for backend, t in _on_each_backend(lambda: batched_block_dm(bs)).items():
        for field in ("row_part", "col_part", "matching_size", "nnz_idx", "h_mask",
                      "row_ids", "col_ids", "row_label", "col_label"):
            assert np.array_equal(getattr(t, field), _SEED[f"{key}/{field}"]), (backend, field)
        assert np.array_equal(t.nnz_off, _offsets(_SEED[f"{key}/nnz_count"]))
        assert np.array_equal(t.row_off, _offsets(_SEED[f"{key}/row_count"]))
        assert np.array_equal(t.col_off, _offsets(_SEED[f"{key}/col_count"]))
        for i, block in enumerate(t):
            assert block.row_part == t.row_part[i]
            assert block.dm.volume_reduction() == t.lambda_minus[i]
            assert block.h_nnz.size == t.h_size[i]
            want = bs.block_nnz_indices(block.row_part, block.col_part)
            assert np.array_equal(block.nnz_idx, want)


def test_batched_dm_includes_diagonal_when_asked(small_square, rng):
    k = 3
    x = rng.integers(0, k, small_square.shape[1])
    y = rng.integers(0, k, small_square.shape[0])
    bs = BlockStructure.from_matrix(small_square, x, y, k)
    all_blocks = batched_block_dm(bs, offdiagonal_only=False)
    off_blocks = batched_block_dm(bs, offdiagonal_only=True)
    assert len(all_blocks) == bs.block_keys.size
    assert len(off_blocks) == len(bs.nonempty_offdiagonal_blocks())
    assert all(r.row_part != r.col_part for r in off_blocks)


def test_block_stats_per_block_accessors(small_square, rng):
    k = 4
    x = rng.integers(0, k, small_square.shape[1])
    y = rng.integers(0, k, small_square.shape[0])
    bs = BlockStructure.from_matrix(small_square, x, y, k)
    st = bs.block_stats()
    for ell in range(k):
        for c in range(k):
            assert st.nnz_of(ell, c) == bs.block_nnz_count(ell, c)
            assert st.nhat_of(ell, c) == bs.block_nonempty_cols(ell, c).size
            assert st.mhat_of(ell, c) == bs.block_nonempty_rows(ell, c).size
    # rowwise_volume satellite: batched aggregate == manual per-block sum
    manual = sum(bs.block_nonempty_cols(l, c).size for l, c in bs.nonempty_offdiagonal_blocks())
    assert rowwise_volume(bs) == manual


def test_block_stats_empty_matrix():
    bs = BlockStructure(
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.zeros(3, dtype=np.int64),
        np.zeros(3, dtype=np.int64),
        2,
    )
    st = bs.block_stats()
    assert st.nblocks == 0
    assert rowwise_volume(bs) == 0
    for t in _on_each_backend(lambda: batched_block_dm(bs)).values():
        assert len(t) == 0 and t.h_nnz.size == 0


def test_grouped_distinct_counts_basic():
    group = np.array([0, 0, 0, 2, 2, 5])
    values = np.array([3, 3, 1, 0, 4, 2])
    groups, counts = grouped_distinct_counts(group, values, 5)
    assert groups.tolist() == [0, 2, 5]
    assert counts.tolist() == [2, 2, 1]


def test_grouped_distinct_counts_empty():
    groups, counts = grouped_distinct_counts(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 10
    )
    assert groups.size == 0 and counts.size == 0


# ----------------------------------------------------------------------
# Native DM and flip loop against the NumPy oracles
# ----------------------------------------------------------------------

_TABLE_FIELDS = (
    "row_part", "col_part", "matching_size", "lambda_minus", "h_size", "nnz_off",
    "nnz_idx", "h_mask", "row_off", "row_ids", "row_label", "col_off", "col_ids",
    "col_label",
)


def _assert_same_table(a: BlockDMTable, b: BlockDMTable) -> None:
    assert a.nparts == b.nparts
    for field in _TABLE_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and np.array_equal(x, y), field


def _assert_backends_agree(a, bs) -> None:
    """DM table, heuristic flips and rounds, and the optimal split are
    the same on the kernels and on the oracles."""
    vectors = dict(x_part=bs.x_part, y_part=bs.y_part, nparts=bs.nparts)

    def run():
        table = batched_block_dm(bs)
        heur = s2d_heuristic(a, **vectors, block_structure=bs, choices=table)
        opt = s2d_optimal(a, **vectors, block_structure=bs)
        return table, heur, opt

    got = _on_each_backend(run)
    (t0, h0, o0), (t1, h1, o1) = got["numpy"], got["native"]
    _assert_same_table(t0, t1)
    assert np.all(t0.lambda_minus >= 0)
    assert h0.meta["rounds"] == h1.meta["rounds"]
    assert np.array_equal(h0.meta["chosen"], h1.meta["chosen"])
    assert np.array_equal(h0.nnz_part, h1.nnz_part)
    assert np.array_equal(o0.nnz_part, o1.nnz_part)


def _suite_cases():
    cfg = ExperimentConfig(scale="tiny")
    for suite, ks in ((table1_suite, cfg.general_ks), (table4_suite, cfg.dense_ks)):
        for sm in suite("tiny"):
            yield pytest.param(sm.build, ks, id=sm.name)


@pytest.mark.native
@pytest.mark.parametrize("build,ks", list(_suite_cases()))
def test_dm_backends_identical_on_table_suites(build, ks):
    """Every block of the Table I–VII tiny matrices under the 1D vector
    partitions those tables build on, at the tables' K values."""
    a = canonical_coo(build())
    eng = PartitionEngine(a, seed=ExperimentConfig(scale="tiny").seed)
    for k in ks:
        v = eng.plan("1d-rowwise", k).partition.vectors
        _assert_backends_agree(a, BlockStructure(a.row, a.col, v.x_part, v.y_part, k))


@pytest.mark.native
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_dm_backends_identical_on_families(family):
    a = canonical_coo(FAMILIES[family]())
    rng = np.random.default_rng(17)
    for k in (3, 8, 32):
        x = rng.integers(0, k, a.shape[1])
        y = rng.integers(0, k, a.shape[0])
        _assert_backends_agree(a, BlockStructure(a.row, a.col, x, y, k))


def _crafted_blocks():
    """``(rows, cols, shape)`` patterns with known coarse DM."""
    rng = np.random.default_rng(3)
    full = sp.random(6, 6, density=0.3, random_state=4) + sp.eye(6)
    yield "square-full-rank", full
    yield "one-by-n", sp.coo_matrix(np.ones((1, 5)))
    yield "n-by-one", sp.coo_matrix(np.ones((5, 1)))
    # Rows 0-2 share only column 0 (two are left unmatched), rows 3-4 meet
    # columns 1-3 (one column is left unmatched): H, S and V all nonempty.
    singular = np.zeros((6, 5))
    singular[[0, 1, 2], 0] = 1
    singular[[3, 3, 4], [1, 2, 3]] = 1
    singular[5, 4] = 1
    yield "structurally-singular", sp.coo_matrix(singular)
    yield "random-wide", sp.random(5, 12, density=0.25, random_state=rng.integers(99))
    yield "random-tall", sp.random(12, 5, density=0.25, random_state=rng.integers(99))


def _single_block(m):
    """A K=2 structure whose only block is ``m``, placed off-diagonal."""
    m = canonical_coo(m)
    return m, BlockStructure(
        m.row, m.col, np.ones(m.shape[1], dtype=np.int64),
        np.zeros(m.shape[0], dtype=np.int64), 2,
    )


@pytest.mark.parametrize(
    "name,m", list(_crafted_blocks()), ids=lambda v: v if isinstance(v, str) else None
)
def test_crafted_blocks_match_the_per_block_decomposition(name, m):
    m, bs = _single_block(m)
    ref = coarse_dm(m.row, m.col)
    for backend, t in _on_each_backend(lambda: batched_block_dm(bs)).items():
        assert len(t) == 1
        b = t[0]
        assert (b.row_part, b.col_part) == (0, 1)
        assert np.array_equal(b.dm.row_ids, ref.row_ids)
        assert np.array_equal(b.dm.row_label, ref.row_label), backend
        assert np.array_equal(b.dm.col_label, ref.col_label), backend
        assert b.dm.matching_size == ref.matching_size
    known = {
        "square-full-rank": (6, 0, 0),  # (matching size, λ⁻, |H|)
        "one-by-n": (1, 4, 5),
        "n-by-one": (1, 0, 0),
        "structurally-singular": (4, 1, 2),
    }
    if name in known:
        assert (t.matching_size[0], t.lambda_minus[0], t.h_size[0]) == known[name]


def test_crafted_blocks_in_one_batch_and_empty_offdiagonal():
    """Blocks of every crafted shape labelled in one call (the kernel
    reuses its workspace across blocks of different sizes), and a
    structure with no off-diagonal nonzeros."""
    parts = [canonical_coo(m) for _, m in _crafted_blocks()]
    big = canonical_coo(sp.block_diag(parts))
    # Block i gets row part i and column part i + 1 (mod K): every crafted
    # pattern is its own off-diagonal block.
    k = len(parts)
    y = np.repeat(np.arange(k), [p.shape[0] for p in parts])
    x = np.repeat((np.arange(k) + 1) % k, [p.shape[1] for p in parts])
    bs = BlockStructure(big.row, big.col, x, y, k)
    got = _on_each_backend(lambda: batched_block_dm(bs))
    ref = got["numpy"]
    assert len(ref) == k
    for t in got.values():
        _assert_same_table(ref, t)
    for i, p in enumerate(parts):
        block = ref[int(np.flatnonzero(ref.row_part == i)[0])]
        assert np.array_equal(block.dm.col_label, coarse_dm(p.row, p.col).col_label)

    diag = canonical_coo(sp.eye(6))
    only_diag = BlockStructure(diag.row, diag.col, np.arange(6) % 3, np.arange(6) % 3, 3)
    for t in _on_each_backend(lambda: batched_block_dm(only_diag)).values():
        assert len(t) == 0 and t.lambda_minus.size == 0
