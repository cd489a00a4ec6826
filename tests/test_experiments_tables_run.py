"""Run the paper's tables once at tiny scale and check their claims.

One module-scoped run of all seven tables at default K is pinned byte
for byte against ``fixtures/tables_tiny.json`` and judged by
:func:`repro.experiments.check_claims` against every claim the tables
declare.  The core claims (s2D volume, the mesh message bound, s2D-b
against s2D) are also asserted by hand on the records, so a checker
that passed everything would still be caught.  Seeded mutations of
copies of those records (one per claim kind: per record, suite
geomean, trend across K, count) show the checker reports each broken
claim and the cell behind it.  The slower
Table III/VII cases carry the ``slow`` marker.
"""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.experiments import ExperimentConfig, check_claims, run_table
from repro.experiments import tables as tables_mod
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


@pytest.mark.parametrize("table", golden_tables.TABLES)
def test_declared_claims_hold(tables, table):
    """Every claim a table declares applies at tiny scale or names the K
    it waits for, and every applicable one holds."""
    verdicts = check_claims(int(table), tables[table])
    assert verdicts
    for v in verdicts:
        assert v.status in ("ok", "n/a"), str(v)
        if v.status == "n/a":
            assert v.claim.min_k > max(rec["K"] for rec in tables[table].records)
            assert str(v).startswith(f"n/a (K < {v.claim.min_k})")


def _holds(tables, table, text):
    """Assert ``table`` declares the claim ``text`` and that it holds."""
    verdicts = {v.claim.text: v for v in check_claims(int(table), tables[table])}
    assert verdicts[text].status == "ok", str(verdicts[text])


# The core claims again, asserted by hand on the records: an oracle for
# the checker that does not go through it.


@pytest.mark.parametrize("table", ["2", "5"])
def test_s2d_volume_never_exceeds_1d(tables, table):
    """s2D refines the 1D vector partition, so it never sends more."""
    for rec in tables[table].records:
        assert rec["s2D"].total_volume <= rec["1D"].total_volume, (rec["name"], rec["K"])
    _holds(tables, table, "s2D volume <= 1D volume")


@pytest.mark.parametrize(
    ("table", "scheme"), [("5", "s2D-b"), ("6", "s2D-b"), ("6", "1D-b"), ("6", "2D-b")]
)
def test_bounded_schemes_meet_the_mesh_message_bound(tables, table, scheme):
    """Mesh routing caps every processor's messages at pr + pc - 2."""
    for rec in tables[table].records:
        pr, pc = mesh_shape(rec["K"])
        assert rec[scheme].max_msgs <= pr + pc - 2, (rec["name"], rec["K"])
    _holds(tables, table, f"{scheme} max msgs <= pr + pc - 2")


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
    _holds(tables, "5", "s2D-b volume <= 2 x s2D volume")


def test_s2db_keeps_the_s2d_load_balance(tables):
    """s2D-b reroutes s2D's messages; its nonzero partition is s2D's."""
    for rec in tables["5"].records:
        assert rec["s2D-b"].load_imbalance == rec["s2D"].load_imbalance, rec["name"]
    _holds(tables, "5", "s2D-b LI == s2D LI")


def _failed(tables, table, mutate):
    """Claim text -> verdict of each claim of ``table`` that fails on a
    copy of its tiny records after ``mutate(records)`` edits the copy."""
    records = [dict(rec) for rec in tables[str(table)].records]
    mutate(records)
    verdicts = check_claims(table, replace(tables[str(table)], records=records))
    return {v.claim.text: v for v in verdicts if v.status == "FAIL"}


def _set(rec, label, **fields):
    """Replace fields of scheme ``label``'s quality in record ``rec``."""
    rec[label] = replace(rec[label], **fields)


def test_claims_catch_a_record_whose_s2d_volume_exceeds_1d(tables):
    def mutate(records):
        _set(records[3], "s2D", total_volume=records[3]["1D"].total_volume + 1)

    rec = tables["2"].records[3]
    failed = _failed(tables, 2, mutate)
    assert list(failed) == ["s2D volume <= 1D volume"]
    assert failed["s2D volume <= 1D volume"].cells == ((rec["name"], rec["K"]),)
    assert f"{rec['name']} K={rec['K']}" in str(failed["s2D volume <= 1D volume"])


def test_claims_catch_an_inflated_2d_suite_load_imbalance(tables):
    def mutate(records):
        for rec in records:
            _set(rec, "2D", load_imbalance=10 * rec["1D"].load_imbalance + 1)

    failed = _failed(tables, 2, mutate)
    text = "2D LI <= 1D LI, geomean at the largest K"
    assert list(failed) == [text]
    assert failed[text].cells == () and " vs " in failed[text].detail


def test_claims_catch_a_flat_1d_load_imbalance_across_k(tables):
    def mutate(records):
        for rec in records:
            _set(rec, "1D", load_imbalance=0.5)

    failed = _failed(tables, 5, mutate)
    assert list(failed) == ["1D LI grows from the smallest to the largest K, geomean"]


def test_claims_catch_table3_without_a_2db_win(tables):
    def mutate(records):
        for rec in records:
            _set(rec, "2D-b", speedup=rec["best_q"].speedup / 2)

    failed = _failed(tables, 3, mutate)
    text = "2D-b Sp > best(1D, 2D, s2D) Sp on >= 1 matrix"
    assert list(failed) == [text]
    assert "(0 vs 1)" in str(failed[text])


def test_claims_catch_a_property_record(tables):
    def mutate(records):
        next(rec for rec in records if rec["name"] == "ins2")["skew"] = 1.0

    failed = _failed(tables, 4, mutate)
    assert list(failed) == ["row skew > 4"]
    assert failed["row skew > 4"].cells == (("ins2", None),)


def test_run_table5_records(cfg):
    res = run_table5(cfg, ks=(4,))
    assert len(res.records) == 8
    for rec in res.records:
        assert rec["s2D"].total_volume <= rec["1D"].total_volume
        assert rec["lam_s2d"] <= 1.0 + 1e-9
        assert abs(rec["s2D-b"].load_imbalance - rec["s2D"].load_imbalance) < 1e-12
    # text renders with geomean row appended
    assert "geomean" in res.text


@pytest.fixture
def no_table_work(monkeypatch):
    """Fail the test if a table run gets as far as building records."""

    def refuse(*args, **kwargs):
        raise AssertionError("table work started before the K axis was checked")

    monkeypatch.setattr(tables_mod, "run_sweep", refuse)
    monkeypatch.setattr(tables_mod, "_properties_cell", refuse)


def test_a_k_below_one_is_refused_up_front(cfg, no_table_work):
    with pytest.raises(ConfigError, match="K must be at least 1, got 0"):
        run_table(2, cfg, ks=(0,))


def test_run_table3_refuses_k_zero(cfg, no_table_work):
    with pytest.raises(ConfigError, match="got 0"):
        run_table3(cfg, k=0)


def test_an_empty_k_axis_is_refused(cfg, no_table_work):
    with pytest.raises(ConfigError, match="ks"):
        run_table(2, cfg, ks=())


def test_a_property_table_refuses_a_k_axis(cfg, no_table_work):
    with pytest.raises(ConfigError, match="no K axis"):
        run_table(1, cfg, ks=(4,))


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
