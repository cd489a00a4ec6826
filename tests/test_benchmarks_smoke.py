"""Slow-marked smoke tests keeping the benchmark scripts from rotting.

Every JSON-emitting benchmark runs end-to-end at tiny scale into a
temporary directory, and the pytest-benchmark table scripts are
executed at tiny scale through a pytest subprocess — the same code
paths ``benchmarks/run_all.py`` and the table harness drive for real.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"

pytestmark = pytest.mark.slow


@pytest.fixture(autouse=True)
def _bench_on_path():
    sys.path.insert(0, str(BENCH_DIR))
    yield
    sys.path.remove(str(BENCH_DIR))


def test_bench_engine_quick(tmp_path):
    import bench_engine

    out = tmp_path / "BENCH_engine.json"
    result = bench_engine.run(out, quick=True)
    assert out.exists()
    data = json.loads(out.read_text())
    assert data == result
    assert {"matrix", "block_stats", "block_dm", "engine_pipeline"} <= set(data)
    assert data["block_stats"]["batched_s"] > 0


def test_bench_partitioner_quick(tmp_path):
    import bench_partitioner

    out = tmp_path / "BENCH_partitioner.json"
    result = bench_partitioner.run(out, quick=True)
    assert out.exists()
    data = json.loads(out.read_text())
    assert {"config", "end_to_end", "quality_suite", "acceptance"} <= set(data)
    assert len(data["end_to_end"]) == 4  # 2 models x 2 K values
    for entry in data["end_to_end"]:
        assert entry["vectorized_s"] > 0
        assert entry["stages"]["total_s"] > 0
        assert "speedup" not in entry and "legacy_s" not in entry
        seed_cut = bench_partitioner.SEED_CUTS[entry["model"], entry["k"]]
        assert entry["cut_legacy"] == seed_cut
    quality = data["quality_suite"]
    for m in quality["matrices"]:
        assert m["cut_legacy"] == bench_partitioner.SEED_CUTS[m["matrix"], quality["k"]]
    assert quality["max_ratio"] == max(m["ratio"] for m in quality["matrices"])
    assert "speedup" not in data["acceptance"]
    assert data["acceptance"]["backends_identical"] is True
    assert data["acceptance"]["threads_identical"] is True
    assert data["config"]["nthreads"] >= 1 and data["config"]["host_cpus"] >= 1
    assert [e["k"] for e in data["large_k"]] == [64, 64]  # quick: K=64 per model
    for entry in data["large_k"]:
        assert entry["stages"]["kway_s"] >= 0 and "cut_legacy" not in entry
    assert data["acceptance"]["numpy_s"] > 0
    assert result["config"]["quick"] is True


def test_bench_runtime_quick(tmp_path):
    import bench_runtime

    out = tmp_path / "BENCH_runtime.json"
    result = bench_runtime.run(out, quick=True)
    assert out.exists()
    data = json.loads(out.read_text())
    assert {"config", "native", "entries", "solver", "acceptance"} <= set(data)
    assert len(data["entries"]) == 12  # 2 models x 2 K values x 3 executors
    for entry in data["entries"]:
        assert entry["apply_s"] > 0
        assert entry["vs_scipy"] > 0
        assert entry["identical"] is True
        if data["native"]["available"]:
            assert entry["apply_native_s"] > 0
            assert entry["native_speedup"] > 0
            assert entry["vs_scipy_native"] > 0
        else:
            assert entry["apply_native_s"] is None
    assert data["solver"]["comm_words_equal"] is True
    acc = data["acceptance"]
    # The vs-CSR ceiling is recorded, but only binds at full scale.
    assert acc["vs_scipy_native_target_applies"] is False
    assert acc["vs_scipy_passed"] is True
    if data["native"]["available"]:
        assert set(acc["vs_scipy_natives"]) == {e["model"] for e in data["entries"]}
    assert result["config"]["quick"] is True


def test_bench_sweep_quick(tmp_path):
    import bench_sweep

    out = tmp_path / "BENCH_sweep.json"
    result = bench_sweep.run(out, quick=True, cache_dir=tmp_path / "cache")
    assert out.exists()
    data = json.loads(out.read_text())
    assert {"config", "serial_cold_s", "parallel_cold_s", "parallel_warm_s",
            "engines", "acceptance"} <= set(data)
    # parallel and warm records bit-identical to serial, warm is a pure
    # cache-read pass (the quick grid is tiny; speed targets apply to
    # the full-scale run only)
    assert data["acceptance"]["identical"] is True
    assert data["parallel_warm_s"] < data["serial_cold_s"]
    assert data["peak_cached_bytes"] > 0
    # the cold pass wrote through the artifact store and read nothing
    assert sum(e["artifacts"]["stores"] for e in data["engines"]) > 0
    assert data["acceptance"]["cold_cache_hits"] == 0
    assert result["config"]["quick"] is True


def test_run_all_driver_quick(tmp_path):
    import run_all

    results = run_all.run_all(tmp_path, quick=True)
    assert set(results) == {
        "BENCH_engine.json",
        "BENCH_partitioner.json",
        "BENCH_runtime.json",
        "BENCH_sweep.json",
    }
    for artifact in results:
        assert (tmp_path / artifact).exists()


def test_table_benchmarks_tiny_scale():
    """Run every pytest-benchmark table script at tiny scale."""
    env = dict(os.environ, REPRO_SCALE="tiny")
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", str(BENCH_DIR), "-q",
            "-p", "no:cacheprovider",
            "--override-ini", "python_files=bench_*.py",
            "--override-ini", "python_functions=test_*",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
