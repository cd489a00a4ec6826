"""Tests of the end-to-end benchmark's own machinery.

Run with the tier-1 suite (``PYTHONPATH=src python -m pytest``); the
smoke tests run every workload in ``--quick`` form, seconds each.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import samples
from repro.obs import Span, Trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Self-time fold
# ----------------------------------------------------------------------


def _tree():
    """root [0, 10] ── a [1, 4] ── c [2, 3]
                     ├─ b [3.5, 5.5]   (overlaps a)
                     └─ e [9, 12]      (runs past root's end)"""
    c = Span("c", t0=2.0, dur=1.0)
    a = Span("a", t0=1.0, dur=3.0, children=[c])
    b = Span("b", t0=3.5, dur=2.0)
    e = Span("e", t0=9.0, dur=3.0)
    return Span("root", t0=0.0, dur=10.0, children=[a, b, e])


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    root = _tree()
    # children cover [1, 5.5] and [9, 10]
    assert layers.self_time(root) == pytest.approx(10.0 - 4.5 - 1.0)
    assert layers.self_time(root.children[0]) == pytest.approx(2.0)
    assert layers.self_time(Span("leaf", t0=0.0, dur=0.25)) == 0.25


def test_fold_charges_self_time_to_the_nearest_mapped_layer():
    totals = layers.fold([_tree()], {"a": "L1", "b": "L2", "e": "L2"})
    assert totals[layers.UNATTRIBUTED] == pytest.approx(4.5)
    assert totals["L1"] == pytest.approx(3.0)  # a's own 2 s plus c, which inherits
    assert totals["L2"] == pytest.approx(5.0)
    assert sum(totals.values()) == pytest.approx(12.5)  # every span's self time, once


def test_layer_metrics_report_shares_counts_and_hit_ratio():
    refine = Span("partition.refine", t0=1.0, dur=2.0)
    kway = Span("partition.kway", t0=0.5, dur=3.0, children=[refine])
    plan = Span("engine.plan", t0=0.0, dur=4.0, children=[kway])
    trace = Trace(t0=0.0, spans=[Span("bench.table", t0=0.0, dur=5.0, children=[plan])],
                  counters={"engine.cache_hits": 1, "engine.cache_misses": 3})
    m = layers.layer_metrics(trace, [])
    assert m["hypergraph.refine_s"] == pytest.approx(2.0)
    assert m["hypergraph.kway_s"] == pytest.approx(1.0)
    assert m["engine.memo_s"] == pytest.approx(1.0)
    assert m["hypergraph.share"] == pytest.approx(3.0 / 5.0)
    assert m["hypergraph.refine_calls"] == 1
    assert m["engine.hit_ratio"] == pytest.approx(0.25)
    assert m["obs.coverage"] == pytest.approx(4.0 / 5.0)


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------


def test_a_missing_wrap_target_is_reported_and_the_rest_are_wrapped_and_restored():
    import repro.engine.engine as engine_mod

    original = engine_mod.BlockStructure
    targets = {
        "repro.engine.engine": ("BlockStructure", "NoSuchFunction"),
        "repro.no_such_module": ("anything",),
    }
    with layers.hooks(targets) as missing:
        assert engine_mod.BlockStructure is not original
        assert missing == ["repro.engine.engine.NoSuchFunction", "repro.no_such_module.anything"]
    assert engine_mod.BlockStructure is original


def test_metrics_fed_by_a_missing_hook_are_omitted():
    assert layers.omitted_metrics(["repro.engine.engine.BlockStructure"]) == {
        "sparse.block_structure_s"
    }
    assert layers.omitted_metrics(["repro.engine.engine.run_partition"]) == {
        "simulate.run_s", "simulate.runs"
    }
    trace = Trace(t0=0.0, spans=[Span("bench.table", t0=0.0, dur=1.0)])
    metrics = layers.layer_metrics(trace, ["repro.engine.registry.make_s2d_bounded"])
    assert "core.s2d_bounded_s" not in metrics
    assert "core.s2d_s" in metrics


def test_every_hook_target_exists_in_the_program():
    with layers.hooks() as missing:
        assert missing == []


# ----------------------------------------------------------------------
# Percentiles and sample counts
# ----------------------------------------------------------------------


def test_tail_is_the_p90_only_with_ten_samples_beyond_it():
    values = list(range(1, 101))  # 1..100
    assert samples.tail(values) == ("p90", 90.0)  # 91..100 lie beyond
    assert samples.tail(values[:99]) == ("max", 99.0)
    assert samples.tail([3.0, 1.0, 2.0]) == ("max", 3.0)


def test_quartiles_match_the_statistics_module_and_spread_is_relative():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert samples.quartiles(values) == (2.75, 8.25)
    assert samples.spread(values) == pytest.approx(5.5 / 5.5)
    assert samples.quartiles([4.0]) == (4.0, 4.0)


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------

PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_spread():
    faster = [v * 0.8 for v in PARENT]
    assert compare.verdict(PARENT, faster, better="lower", bound=0.1, claimed=True)["verdict"] == "gain"
    eight_wins = faster[:8] + [v * 1.01 for v in PARENT[8:]]
    assert compare.verdict(PARENT, eight_wins, better="lower", bound=0.1,
                           claimed=True)["verdict"] == "not met"
    tiny = [v - 0.001 for v in PARENT]  # wins every pair, but inside the noise
    assert compare.verdict(PARENT, tiny, better="lower", bound=0.1, claimed=True)["verdict"] == "not met"
    assert compare.verdict(PARENT[:5], faster[:5], better="lower", bound=0.1,
                           claimed=True)["verdict"] == "too few pairs"


def test_regressed_unresolved_and_ok():
    slower = [v * 1.2 for v in PARENT]
    assert compare.verdict(PARENT, slower, better="lower", bound=0.1)["verdict"] == "regressed"
    assert compare.verdict(PARENT, slower, better="higher", bound=0.1)["verdict"] == "ok"
    noisy = [5.0, 15.0, 9.0, 11.0, 6.0, 14.0, 10.0, 10.0, 7.0, 13.0]
    assert compare.verdict(PARENT, noisy, better="lower", bound=0.1)["verdict"] == "unresolved"
    assert compare.verdict(PARENT, PARENT, better="lower", bound=0.1)["verdict"] == "ok"
    assert compare.verdict(PARENT, PARENT, better=None, bound=None)["verdict"] == "info"


def _result(workload, seed, value, nproc=2, native=True, failed=0, quick=False):
    return {"workload": workload, "seed": seed, "seconds": 10.0, "trace": False, "quick": quick,
            "correct": failed == 0, "attempted": 100, "failed": failed,
            "stamp": {"nproc": nproc, "native": {"available": native}},
            "end_to_end": {"job_s": value}, "per_layer": {"runtime.apply_us": value}}


def test_compare_pairs_by_seed_and_refuses_mixed_hosts():
    parent = [_result("solve-mesh", s, 1.0 + s / 100) for s in range(10)]
    change = [_result("solve-mesh", s, 0.5 + s / 100) for s in reversed(range(10))]
    rows = compare.compare(parent, change, SPEC, {("job_s", "solve-mesh")})
    by_name = {name: v for _, name, v in rows}
    assert by_name["job_s"]["verdict"] == "gain"
    assert by_name["job_s"]["wins"] == 10
    assert by_name["runtime.apply_us"]["verdict"] == "info"
    assert by_name["failed"]["verdict"] == "ok"
    for odd in (_result("solve-mesh", 9, 1.0, nproc=4),
                _result("solve-mesh", 9, 1.0, native=False),
                _result("solve-mesh", 9, 1.0, quick=True),
                _result("solve-mesh", 10, 1.0)):  # seed 10 against the parent's 9
        with pytest.raises(compare.Refused):
            compare.compare(parent, change[:9] + [odd], SPEC, set())
    with pytest.raises(compare.Refused):  # per-layer metrics have no bound to claim against
        compare.compare(parent, change, SPEC, {("runtime.apply_us", "solve-mesh")})


def test_compare_fails_a_change_whose_output_checks_fail(tmp_path):
    parent = [_result("solve-mesh", s, 1.0 + s / 100) for s in range(10)]
    change = [_result("solve-mesh", s, 0.5 + s / 100, failed=int(s == 4)) for s in range(10)]
    rows = compare.compare(parent, change, SPEC, {("job_s", "solve-mesh")})
    by_name = {name: v for _, name, v in rows}
    assert by_name["failed"]["verdict"] == "checks failed"
    assert by_name["job_s"]["verdict"] == "gain"  # the timing alone would pass
    rows = compare.compare(change, change, SPEC, set())
    assert {name: v for _, name, v in rows}["failed"]["verdict"] == "checks failed"

    files = {}
    for side, results in (("parent", parent), ("change", change)):
        files[side] = []
        for r in results:
            path = tmp_path / f"{side}-{r['seed']}.json"
            path.write_text(json.dumps(r))
            files[side].append(str(path))
    argv = ["--parent", *files["parent"], "--change", *files["change"]]
    assert compare.main(argv + ["--claim", "job_s@solve-mesh"]) == 1
    assert compare.main(["--parent", *files["parent"], "--change", *files["parent"]]) == 0


# ----------------------------------------------------------------------
# Smoke: every workload, quick
# ----------------------------------------------------------------------


@pytest.fixture
def native_cache(tmp_path, monkeypatch):
    from repro.native import find_compiler
    from repro.native.build import CACHE_ENV

    if find_compiler() is None:
        pytest.skip("no C compiler for the native backend")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "native"))
    return tmp_path / "native"


def test_benchmark_json_names_the_catalogue():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("name", ["table2", "table5", "solve-mesh", "solve-rmat"])
def test_quick_run_emits_every_metric_and_checks_out(name, tmp_path, native_cache):
    import workloads

    result = workloads.run_workload(name, seed=3, seconds=0, trace=True, quick=True,
                                    scratch=tmp_path / "scratch", root=ROOT)
    assert result.failures == []
    assert result.attempted >= 3
    assert result.missing_hooks == []
    assert set(result.end_to_end) == set(workloads.END_TO_END)
    assert set(result.per_layer) == set(workloads.PER_LAYER)
    assert all(v > 0 for v in result.end_to_end.values())
    assert result.per_layer["obs.coverage"] > 0.9


def test_cli_prints_metric_lines_and_the_contract_json_last(tmp_path, native_cache):
    env = {**os.environ, "REPRO_NATIVE_CACHE": str(native_cache)}
    out = tmp_path / "r.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "solve-rmat", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--quick", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert "job_s " in done.stdout
    full = json.loads(out.read_text())
    assert full["stamp"]["seed"] == 2 and "nproc" in full["stamp"]


def test_cli_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "benchmarks" / "e2e").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "benchmarks" / "e2e" / f.name).write_text(f.read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "table2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
