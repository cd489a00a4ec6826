"""Metric helpers and deterministic RNG handling."""

import numpy as np
import pytest

from repro.metrics import format_li, format_table, geomean, load_imbalance
from repro.rng import DEFAULT_SEED, as_generator, spawn


def test_geomean_basic():
    assert geomean([1, 100]) == pytest.approx(10.0)
    assert geomean([2, 2, 2]) == pytest.approx(2.0)


def test_geomean_ignores_nonpositive():
    assert geomean([0.0, 4.0]) == pytest.approx(4.0)
    assert geomean([]) == 0.0
    assert geomean([0.0]) == 0.0


def test_load_imbalance():
    assert load_imbalance(np.array([10, 10])) == 0.0
    assert load_imbalance(np.array([30, 10])) == pytest.approx(0.5)


def test_load_imbalance_empty_is_zero():
    """Regression: max() of an empty load vector used to crash."""
    assert load_imbalance(np.array([])) == 0.0
    assert load_imbalance(np.array([], dtype=np.int64)) == 0.0


def test_load_imbalance_all_zero_loads():
    assert load_imbalance(np.zeros(4)) == 0.0


def test_format_li_paper_style():
    assert format_li(0.129) == "12.9%"
    assert format_li(1.2) == "1.2*"
    assert format_li(0.0) == "0.0%"


def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "333" in lines[4]
    # all rows same width
    assert len(set(len(l) for l in lines[1:])) == 1


def test_as_generator_default_seed():
    g1 = as_generator(None)
    g2 = as_generator(DEFAULT_SEED)
    assert g1.integers(0, 1000) == g2.integers(0, 1000)


def test_as_generator_passthrough():
    g = np.random.default_rng(5)
    assert as_generator(g) is g


def test_spawn_independent_streams():
    g = as_generator(1)
    children = spawn(g, 3)
    vals = [c.integers(0, 10**9) for c in children]
    assert len(set(vals)) == 3


def test_spawn_deterministic():
    a = [c.integers(0, 100) for c in spawn(as_generator(2), 4)]
    b = [c.integers(0, 100) for c in spawn(as_generator(2), 4)]
    assert a == b
