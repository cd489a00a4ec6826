"""Run the quantitative table harnesses once at tiny scale.

The benchmarks run these at full scale; here the smallest instance
exercises the full record plumbing so harness regressions surface in
the unit suite, not only after a long bench run.  One module-scoped
run of all seven tables at default K is pinned byte for byte against
``fixtures/tables_tiny.json`` and checked record by record against the
paper's central claims.  The Table V case stays in the fast tier (it
covers the engine-rewired tables including the s2D/s2D-b plan
sharing); the slower Table III/VII cases carry the ``slow`` marker.
"""

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.tables import run_table3, run_table5, run_table7
from repro.partition.checkerboard import mesh_shape

from tests import golden_tables


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(scale="tiny")


@pytest.fixture(scope="module")
def tables():
    """Tables I–VII at tiny scale and default K, run once."""
    return golden_tables.results()


def test_tables_match_golden_text(tables):
    assert golden_tables.diff({t: res.text for t, res in tables.items()}) == []


@pytest.mark.parametrize("table", ["2", "5"])
def test_s2d_volume_never_exceeds_1d(tables, table):
    """s2D refines the 1D vector partition, so it never sends more."""
    for rec in tables[table].records:
        assert rec["s2D"].total_volume <= rec["1D"].total_volume, (rec["name"], rec["K"])


@pytest.mark.parametrize(
    ("table", "scheme"), [("5", "s2D-b"), ("6", "s2D-b"), ("6", "1D-b"), ("6", "2D-b")]
)
def test_bounded_schemes_meet_the_mesh_message_bound(tables, table, scheme):
    """Mesh routing caps every processor's messages at pr + pc - 2."""
    for rec in tables[table].records:
        pr, pc = mesh_shape(rec["K"])
        assert rec[scheme].max_msgs <= pr + pc - 2, (rec["name"], rec["K"])


def test_s2db_volume_stays_within_twice_s2d(tables):
    """s2D-b routes s2D's words over the ``pr x pc`` mesh: each word
    takes at most two hops, and combining words on the way only removes
    some, so s2D-b sends at most twice s2D's total volume.  Table VI has
    no plain s2D column, so the records holding both are Table V's."""
    records = tables["5"].records
    assert records
    for rec in records:
        assert rec["s2D-b"].total_volume <= 2 * rec["s2D"].total_volume, (
            rec["name"], rec["K"],
        )


def test_s2db_keeps_the_s2d_load_balance(tables):
    """s2D-b reroutes s2D's messages; its nonzero partition is s2D's."""
    for rec in tables["5"].records:
        assert rec["s2D-b"].load_imbalance == rec["s2D"].load_imbalance, rec["name"]


def test_run_table5_records(cfg):
    res = run_table5(cfg, ks=(4,))
    assert len(res.records) == 8
    for rec in res.records:
        assert rec["s2D"].total_volume <= rec["1D"].total_volume
        assert rec["lam_s2d"] <= 1.0 + 1e-9
        assert abs(rec["s2D-b"].load_imbalance - rec["s2D"].load_imbalance) < 1e-12
    # text renders with geomean row appended
    assert "geomean" in res.text


@pytest.mark.slow
def test_run_table3_best_selection(cfg):
    res = run_table3(cfg, k=4)
    for rec in res.records:
        fastest = max(("1D", "2D", "s2D"), key=lambda label: rec[label].speedup)
        assert rec["best"] == fastest
        assert rec["best_q"] is rec[fastest]
        assert all(rec["best_q"].speedup >= rec[s].speedup for s in ("1D", "2D", "s2D"))
    assert len(res.rows) == 9  # 8 matrices + geomean


@pytest.mark.slow
def test_run_table7_admissibility(cfg):
    res = run_table7(cfg, ks=(4,))
    for rec in res.records:
        assert rec["mg"].kind == "s2D-mg"
        assert rec["s2D"].kind == "s2D"
    assert "Table VII" in res.title
