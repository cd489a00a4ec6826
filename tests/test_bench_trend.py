"""The bench-trend regression gate (``repro.obs.trend``).

Contract under test:

- the committed ``BENCH_*.json`` files pass the gate against
  themselves (the invariant ``tools/check_all.py --bench`` rides on);
- a regressed copy — a metric pushed below its recorded floor, or past
  a ceiling like ``amortize_target`` — fails, with the bound taken
  from the *baseline* document so a regressed run cannot lower its own
  bar;
- ``*_applies: false`` host-condition flags demote a floor to advisory
  (a 1-CPU host cannot meet a parallel speedup target) while every
  other boolean acceptance flag is a hard verdict;
- holes fail loudly: a baselined metric or a whole BENCH file missing
  from the fresh set is a failure, not a skip — only files with no
  acceptance block at all are uncomparable.
"""

import copy
import json
import pathlib
import subprocess
import sys

from repro.obs import compare_bench, load_bench, trend_report, trend_text
from repro.obs.trend import acceptance_metrics

REPO = pathlib.Path(__file__).resolve().parent.parent

BASE = {
    "entries": [],
    "acceptance": {
        "speedup": 2.5,
        "speedup_target": 2.0,
        "amortize_iters": 12.0,
        "amortize_target": 20.0,
        "identical": True,
    },
}


def _write(dirpath, name, doc):
    (dirpath / name).write_text(json.dumps(doc), encoding="utf-8")


def test_acceptance_metrics_extraction():
    m = acceptance_metrics(BASE)
    assert m["speedup"] == {
        "value": 2.5,
        "bound": 2.0,
        "ceiling": False,
        "applies": True,
    }
    assert m["amortize_iters"]["ceiling"] is True
    # Bounds and booleans are not themselves metrics.
    assert "speedup_target" not in m and "identical" not in m


def test_dict_valued_metrics_fan_out():
    doc = {
        "acceptance": {
            "native_speedups": {"rmat13": 3.0, "mesh10k": 2.5},
            "native_speedup_target": 2.0,
        }
    }
    m = acceptance_metrics(doc)
    assert m["native_speedups.rmat13"]["value"] == 3.0
    assert m["native_speedups.mesh10k"]["bound"] == 2.0


def test_vs_scipy_is_a_dict_valued_ceiling():
    """bench_runtime's native-apply-over-CSR ratios fan out per matrix
    and fail when they rise above the recorded ceiling."""
    base = {
        "acceptance": {
            "vs_scipy_natives": {"rmat13": 2.0, "mesh10k": 2.2},
            "vs_scipy_native_target": 4.0,
        }
    }
    m = acceptance_metrics(base)
    assert m["vs_scipy_natives.rmat13"] == {
        "value": 2.0, "bound": 4.0, "ceiling": True, "applies": True,
    }
    assert compare_bench(base, copy.deepcopy(base))["ok"]
    fresh = copy.deepcopy(base)
    fresh["acceptance"]["vs_scipy_natives"]["mesh10k"] = 4.5
    result = compare_bench(base, fresh)
    assert not result["ok"]
    assert result["metrics"]["vs_scipy_natives.mesh10k"]["status"] == "regression"
    assert result["metrics"]["vs_scipy_natives.rmat13"]["status"] == "ok"


def test_loop_overhead_is_a_ceiling():
    """bench_runtime's CG loop overhead fails when it rises above the
    baseline's ceiling, and only advises where the target does not
    apply (no native kernels, or a quick run)."""
    base = {
        "acceptance": {
            "loop_overhead": 1.05,
            "loop_overhead_target": 1.1,
            "loop_overhead_target_applies": True,
            "loop_overhead_passed": True,
        }
    }
    assert acceptance_metrics(base)["loop_overhead"] == {
        "value": 1.05, "bound": 1.1, "ceiling": True, "applies": True,
    }
    assert compare_bench(base, copy.deepcopy(base))["ok"]
    fresh = copy.deepcopy(base)
    fresh["acceptance"]["loop_overhead"] = 1.08
    assert compare_bench(base, fresh)["metrics"]["loop_overhead"]["status"] == "drift"
    fresh["acceptance"]["loop_overhead"] = 1.2
    result = compare_bench(base, fresh)
    assert not result["ok"]
    assert result["metrics"]["loop_overhead"]["status"] == "regression"
    fresh["acceptance"]["loop_overhead_target_applies"] = False
    result = compare_bench(base, fresh)
    assert result["ok"]
    assert result["metrics"]["loop_overhead"]["status"] == "advisory"


def test_identical_doc_passes():
    result = compare_bench(BASE, copy.deepcopy(BASE))
    assert result["ok"]
    assert all(m["status"] == "ok" for m in result["metrics"].values())


def test_floor_regression_fails():
    fresh = copy.deepcopy(BASE)
    fresh["acceptance"]["speedup"] = 1.2
    result = compare_bench(BASE, fresh)
    assert not result["ok"]
    assert result["metrics"]["speedup"]["status"] == "regression"


def test_drift_above_floor_is_not_fatal():
    fresh = copy.deepcopy(BASE)
    fresh["acceptance"]["speedup"] = 2.1  # worse than 2.5, clears 2.0
    result = compare_bench(BASE, fresh)
    assert result["ok"]
    assert result["metrics"]["speedup"]["status"] == "drift"


def test_ceiling_direction():
    fresh = copy.deepcopy(BASE)
    fresh["acceptance"]["amortize_iters"] = 25.0  # above the 20 ceiling
    result = compare_bench(BASE, fresh)
    assert not result["ok"]
    assert result["metrics"]["amortize_iters"]["status"] == "regression"


def test_bound_comes_from_baseline():
    # A regressed run that also *lowers its own floor* must still fail
    # against the committed floor.
    fresh = copy.deepcopy(BASE)
    fresh["acceptance"]["speedup"] = 1.2
    fresh["acceptance"]["speedup_target"] = 1.0
    result = compare_bench(BASE, fresh)
    assert not result["ok"]
    assert result["metrics"]["speedup"]["bound"] == 2.0


def test_applies_false_demotes_to_advisory():
    fresh = copy.deepcopy(BASE)
    fresh["acceptance"]["speedup"] = 1.2
    fresh["acceptance"]["speedup_target_applies"] = False
    result = compare_bench(BASE, fresh)
    assert result["ok"]
    assert result["metrics"]["speedup"]["status"] == "advisory"
    # The marker flag itself must not be read as a failed verdict.
    assert "speedup_target_applies" not in result["flags"]


def test_false_boolean_flag_fails():
    fresh = copy.deepcopy(BASE)
    fresh["acceptance"]["identical"] = False
    result = compare_bench(BASE, fresh)
    assert not result["ok"]
    assert result["flags"]["identical"] is False


def test_missing_metric_fails():
    fresh = copy.deepcopy(BASE)
    del fresh["acceptance"]["speedup"]
    result = compare_bench(BASE, fresh)
    assert not result["ok"]
    assert result["metrics"]["speedup"]["status"] == "missing"


def test_trend_report_directories(tmp_path):
    baseline = tmp_path / "baseline"
    fresh = tmp_path / "fresh"
    baseline.mkdir(), fresh.mkdir()
    _write(baseline, "BENCH_a.json", BASE)
    _write(fresh, "BENCH_a.json", BASE)
    _write(baseline, "BENCH_gone.json", BASE)  # no fresh counterpart
    _write(fresh, "BENCH_raw.json", {"entries": []})  # no acceptance
    report = trend_report(baseline, fresh)
    assert not report["ok"]
    assert report["benches"]["BENCH_a.json"]["ok"]
    assert report["benches"]["BENCH_gone.json"]["error"] == "missing fresh file"
    assert "skipped" in report["benches"]["BENCH_raw.json"]
    text = trend_text(report)
    assert "BENCH_gone.json: FAIL" in text and "bench-trend: FAIL" in text


def test_committed_bench_files_pass_gate():
    """The repo's own BENCH files must clear their recorded floors."""
    report = trend_report(REPO, REPO)
    assert report["ok"], trend_text(report)
    # Sanity: the gate actually compared something.
    compared = [b for b in report["benches"].values() if "metrics" in b]
    assert compared


def test_cli_gate_pass_and_fail(tmp_path):
    """tools/bench_trend.py exits 0 on the committed files and 1 on a
    synthetically regressed copy (floors still from the baseline)."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    regressed_name = None
    for path in sorted(REPO.glob("BENCH_*.json")):
        doc = load_bench(path)
        acceptance = doc.get("acceptance") or {}
        # Regress the first speedup whose floor binds on this host
        # (skipping *_applies=false advisory metrics).
        if (
            regressed_name is None
            and "speedup" in acceptance
            and acceptance.get("speedup_target_applies", True)
        ):
            doc["acceptance"]["speedup"] = 0.01
            regressed_name = path.name
        _write(fresh, path.name, doc)
    assert regressed_name is not None

    def run(new_dir):
        return subprocess.run(
            [sys.executable, str(REPO / "tools" / "bench_trend.py"),
             "--new-dir", str(new_dir), "--baseline-dir", str(REPO)],
            capture_output=True, text=True,
        )

    good = run(REPO)
    assert good.returncode == 0, good.stdout + good.stderr
    assert "bench-trend: PASS" in good.stdout
    bad = run(fresh)
    assert bad.returncode == 1, bad.stdout + bad.stderr
    assert "regression" in bad.stdout and regressed_name in bad.stdout
