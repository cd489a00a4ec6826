"""Experiment harness: Figure 1 pins and tiny-scale table invariants."""

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, figure1_partition, figure1_report
from repro.experiments.tables import run_table1, run_table4
from repro.sparse.properties import matrix_properties


# ----------------------------------------------------------- Figure 1


def test_figure1_shape_and_parts():
    p = figure1_partition()
    assert p.matrix.shape == (10, 13)
    assert p.nparts == 3
    p.validate_s2d()


def test_figure1_worked_messages():
    """The exact numbers the paper narrates about Figure 1."""
    from repro.simulate import run_single_phase

    ledger = run_single_phase(figure1_partition()).ledger
    # P2 sends [x_5, y~_2] to P1: one message, 2 words (0-based: 1 -> 0)
    assert ledger.pair_volume("expand-and-fold", 1, 0) == 2
    # lambda_{3->2} = 3 (0-based: 2 -> 1)
    assert ledger.pair_volume("expand-and-fold", 2, 1) == 3


def test_figure1_x13_only_needed_by_p2():
    """Column 13 (0-based 12): only P2 (0-based 1) holds nonzeros."""
    p = figure1_partition()
    m = p.matrix
    col13 = m.col == 12
    assert np.all(p.nnz_part[col13] == 1)


def test_figure1_precompute_example():
    """y~_2 = a_{2,6} x_6 + a_{2,7} x_7 is precomputed by P2."""
    p = figure1_partition()
    m = p.matrix
    # 0-based row 1, cols 5 and 6, owned by part 1 (= paper's P2)
    sel = (m.row == 1) & ((m.col == 5) | (m.col == 6))
    assert sel.sum() == 2
    assert np.all(p.nnz_part[sel] == 1)


#: The whole ``figure1_report()`` text, byte for byte.
FIGURE1_TEXT = """\
Figure 1 (reconstruction): 10x13 matrix, 3-way s2D partition
(digits are 1-based owning processors; rows/cols grouped by part)

1 . 1 . | . . . | . . . . . .
. 1 . . | 1 2 2 | . . . . . .
. . . 1 | 1 . . | . . . . . .
1 . . 1 | . . . | . . . . . .
-------------------------
1 . 1 . | . 2 . | 3 . 3 . . .
. . . . | 2 . 2 | . 2 . . . 2
. . . . | . 2 . | . 2 . . . .
-------------------------
. . . . | . . . | 3 . 3 . . .
. 3 . . | . . . | . 3 . . . .
. . . 3 | . . . | . . . 3 3 .

Fused messages lambda_{k->l} (eq. 3):
  P1 -> P2: 1 words
  P1 -> P3: 2 words
  P2 -> P1: 2 words
  P3 -> P2: 3 words

Worked example of the text: P2 sends [x_5, y~_2] to P1 (lambda_{2->1} = 2); lambda_{3->2} = 3.
"""


def test_figure1_report_renders():
    rep = figure1_report()
    assert "10x13" in rep
    assert "lambda_{2->1} = 2" in rep
    assert "lambda_{3->2} = 3" in rep
    assert rep + "\n" == FIGURE1_TEXT


def test_figure1_spmv_runs():
    from repro.simulate import run_single_phase

    p = figure1_partition()
    run = run_single_phase(p)
    assert np.allclose(run.y, p.matrix @ (np.arange(1, 14) / 13))


# ----------------------------------------------------------- Tables


def test_table1_rows_match_suite():
    cfg = ExperimentConfig(scale="tiny")
    res = run_table1(cfg)
    assert len(res.records) == 8
    names = [r["name"] for r in res.records]
    assert "crystk02" in names and "pattern1" in names
    assert "Table I" in res.title
    assert res.text.count("\n") >= 9


def test_table4_has_dense_rows():
    cfg = ExperimentConfig(scale="tiny")
    res = run_table4(cfg)
    skews = {r["name"]: r["skew"] for r in res.records}
    assert skews["lp1"] > 10
    assert skews["ins2"] > 10


def test_experiment_config_scales():
    assert ExperimentConfig(scale="tiny").general_ks == (2, 4, 8)
    assert ExperimentConfig(scale="small").dense_ks == (16, 64, 256)


def test_experiment_config_partitioner_seeded():
    cfg = ExperimentConfig(scale="tiny", seed=7)
    assert cfg.partitioner(1).seed == 8
