"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.native import find_compiler
from repro.sparse.coo import canonical_coo


def pytest_collection_modifyitems(config, items):
    """Skip ``native``-marked tests on hosts without a C compiler."""
    if find_compiler() is not None:
        return
    skip = pytest.mark.skip(reason="no C compiler on PATH for the native backend")
    for item in items:
        if item.get_closest_marker("native") is not None:
            item.add_marker(skip)


@pytest.fixture(scope="session", autouse=True)
def _hermetic_native_cache(tmp_path_factory):
    """Point the native build cache at a session temp dir when unset.

    Keeps the suite from writing into (or reading stale kernels from)
    the user's ``~/.cache/repro-native``; an explicitly exported
    ``REPRO_NATIVE_CACHE`` is honoured so a warm cache can be reused
    across runs.
    """
    from repro.native.build import CACHE_ENV

    if os.environ.get(CACHE_ENV):
        yield
        return
    os.environ[CACHE_ENV] = str(tmp_path_factory.mktemp("repro-native-cache"))
    try:
        yield
    finally:
        os.environ.pop(CACHE_ENV, None)


def _build_artifacts_in_tree() -> list[str]:
    """Compiled-object files under the repo tree (never expected: the
    native build cache lives outside it)."""
    root = pathlib.Path(__file__).resolve().parent.parent
    return sorted(
        str(p)
        for pat in ("*.so", "*.o", "*.so.tmp*")
        for p in root.rglob(pat)
    )


@pytest.fixture(scope="session", autouse=True)
def _no_stray_build_artifacts(_hermetic_native_cache):
    """The whole session must not strand ``.so``/``.o`` files in-tree."""
    before = _build_artifacts_in_tree()
    yield
    stray = [p for p in _build_artifacts_in_tree() if p not in before]
    assert not stray, f"stray native build artifacts in the repo tree: {stray}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_square():
    """A 30×30 sparse matrix with diagonal, deterministic."""
    a = sp.random(30, 30, density=0.12, random_state=7, format="coo")
    return canonical_coo(a + sp.eye(30))


@pytest.fixture
def small_rect():
    """A 20×28 rectangular sparse matrix, deterministic."""
    return canonical_coo(sp.random(20, 28, density=0.15, random_state=9, format="coo"))


@pytest.fixture
def medium_square():
    """A 200×200 matrix, enough structure for partitioning tests."""
    a = sp.random(200, 200, density=0.03, random_state=3, format="coo")
    return canonical_coo(a + sp.eye(200))


def random_vector_partition(rng, m, n, k):
    """Random x/y partition covering all parts."""
    y = rng.integers(0, k, size=m)
    x = rng.integers(0, k, size=n)
    # Guarantee every part owns at least one row and one column index
    # when sizes permit (keeps loads sane in tests).
    for p in range(min(k, m)):
        y[p] = p
    for p in range(min(k, n)):
        x[p] = p
    return x.astype(np.int64), y.astype(np.int64)


def random_s2d_partition(rng, a, k):
    """A random admissible s2D partition of matrix ``a``."""
    from repro.partition.types import SpMVPartition, VectorPartition

    m = canonical_coo(a)
    x, y = random_vector_partition(rng, m.shape[0], m.shape[1], k)
    rp = y[m.row]
    cp = x[m.col]
    side = rng.random(m.nnz) < 0.5
    nnz_part = np.where(side, rp, cp)
    return SpMVPartition(
        matrix=m,
        nnz_part=nnz_part,
        vectors=VectorPartition(x_part=x, y_part=y, nparts=k),
        kind="s2D",
    )


def cli_usage_error(capsys, argv) -> str:
    """Run the CLI on ``argv`` and check it refused the input as a
    usage error: exit status 2, nothing on stdout, and exactly one
    ``s2d-repro: error:`` line on stderr, which is returned."""
    from repro.cli import main

    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("s2d-repro: error: ") and err.count("\n") == 1, err
    return err
