"""Correctness of the persistent artifact cache.

The contract under test: a warm rerun produces records *bit-identical*
to the cold run; any change to a cache-key component (matrix content,
partitioner config, seed, format/schema version) forces a rebuild
instead of serving a stale artifact; and a corrupted cache entry is
evicted and rebuilt, never an error.
"""

import sqlite3

import numpy as np
import pytest

import repro.partition.serialize as serialize
import repro.sweep.cache as sweep_cache
from repro.engine import PartitionEngine
from repro.experiments import ExperimentConfig
from repro.experiments.tables import table_grid
from repro.generators.rmat import rmat
from repro.hypergraph import PartitionConfig
from repro.simulate.machine import MachineModel
from repro.sweep import (
    ArtifactCache,
    MatrixRef,
    SchemeSpec,
    SweepGrid,
    cache_key,
    quality_identical,
    run_sweep,
    suite_refs,
)


@pytest.fixture()
def matrix():
    return rmat(7, edge_factor=4, seed=5)


@pytest.fixture()
def grid():
    return SweepGrid(
        matrices=suite_refs("table4", "tiny", names=("rmat_20",)),
        schemes=(
            SchemeSpec("1d-rowwise", slot=0),
            SchemeSpec("s2d-heuristic", slot=0),
        ),
        ks=(3,),
    )


def _assert_identical(a, b):
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert (ra.matrix, ra.scheme, ra.k, ra.seed) == (
            rb.matrix, rb.scheme, rb.k, rb.seed,
        )
        assert quality_identical(ra.quality, rb.quality)


def test_warm_rerun_bit_identical(grid, tmp_path):
    cold = run_sweep(grid, cache_dir=tmp_path)
    warm = run_sweep(grid, cache_dir=tmp_path)
    assert not any(r.from_cache for r in cold.records)
    assert all(r.from_cache for r in warm.records)
    _assert_identical(cold, warm)
    # and identical to an uncached run
    plain = run_sweep(grid)
    _assert_identical(plain, warm)


def test_warm_rerun_does_no_partitioner_work(grid, tmp_path):
    run_sweep(grid, cache_dir=tmp_path)
    warm = run_sweep(grid, cache_dir=tmp_path)
    (info,) = warm.engines
    # every cell answered from the record store: the engine never
    # planned, simulated, or even touched its memo store
    assert info["entries"] == 0
    assert info["artifacts"]["hits"] == len(warm.records)
    assert info["artifacts"]["misses"] == 0


#: The artifact addresses of tiny Table II's first cell (crystk02,
#: 1d-rowwise, K = 2, seed 42, the tables' machine).  A change to the
#: plan key or to its canonical rendering moves every address and turns
#: every existing cache into misses; change them only for such a move.
FIRST_TABLE2_RECORD_KEY = "9f7038cf61b159d7bc74268f3a00f7574c95ce97f253ddfa1a87484aa2a22c2b"
FIRST_TABLE2_PARTITION_KEY = "64f7557d304326f911bb3114a0e00910206c4a1bdf95ca8335904c6512c68b41"


def test_first_table2_cell_addresses_are_pinned(tmp_path):
    full = table_grid(2, ExperimentConfig(scale="tiny"), (2,))
    grid = SweepGrid(
        matrices=full.matrices[:1],
        schemes=full.schemes[:1],
        ks=(2,),
        seeds=full.seeds,
        machine=full.machine,
    )
    (record,) = run_sweep(grid, cache_dir=tmp_path).records
    assert (record.matrix, record.scheme, record.k, record.seed) == (
        "crystk02", "1d-rowwise", 2, 42,
    )
    assert record.machine == ExperimentConfig().machine
    assert record.record_key == FIRST_TABLE2_RECORD_KEY
    db = sqlite3.connect(tmp_path / sweep_cache.DB_NAME)
    try:
        keys = {key for (key,) in db.execute("SELECT key FROM artifacts")}
    finally:
        db.close()
    assert keys == {FIRST_TABLE2_RECORD_KEY, FIRST_TABLE2_PARTITION_KEY}


def test_matrix_digest_change_forces_rebuild(grid, tmp_path, monkeypatch):
    run_sweep(grid, cache_dir=tmp_path)
    materialize = MatrixRef.materialize

    def perturbed(ref):
        # A generator that changed between releases: the same name,
        # the same pattern, different content.
        m = materialize(ref)
        m.data = m.data.copy()
        m.data[0] += 1.0
        return m

    monkeypatch.setattr(MatrixRef, "materialize", perturbed)
    res = run_sweep(grid, cache_dir=tmp_path)
    assert not any(r.from_cache for r in res.records)


def test_config_and_seed_changes_force_rebuild(grid, tmp_path):
    run_sweep(grid, cache_dir=tmp_path)
    # different base seed → different derived config seeds → miss
    reseeded = SweepGrid(
        matrices=grid.matrices, schemes=grid.schemes, ks=grid.ks, seeds=(7,)
    )
    res = run_sweep(reseeded, cache_dir=tmp_path)
    assert not any(r.from_cache for r in res.records)
    # different epsilon (partitioner config field) → another address
    engine = PartitionEngine(grid.matrices[0].materialize())
    keys = {
        engine.plan_key("1d-rowwise", 3, config=PartitionConfig(epsilon=eps, seed=42))
        for eps in (0.03, 0.5)
    }
    assert len(keys) == 2
    # unchanged grid still fully warm (the above polluted nothing)
    warm = run_sweep(grid, cache_dir=tmp_path)
    assert all(r.from_cache for r in warm.records)


def test_machine_model_participates_in_record_key(grid, tmp_path):
    run_sweep(grid, cache_dir=tmp_path)
    repriced = SweepGrid(
        matrices=grid.matrices,
        schemes=grid.schemes,
        ks=grid.ks,
        machine=MachineModel(alpha=1.0, beta=1.0, gamma=1.0),
    )
    res = run_sweep(repriced, cache_dir=tmp_path)
    # records rebuilt (different pricing), but the partitions themselves
    # come from the artifact store
    assert not any(r.from_cache for r in res.records)
    (info,) = res.engines
    assert info["artifacts"]["hits"] > 0


def test_format_version_bump_forces_rebuild(grid, tmp_path, monkeypatch):
    run_sweep(grid, cache_dir=tmp_path)
    monkeypatch.setattr(serialize, "FORMAT_VERSION", serialize.FORMAT_VERSION + 1)
    res = run_sweep(grid, cache_dir=tmp_path)
    assert not any(r.from_cache for r in res.records)


def test_record_version_bump_forces_rebuild(grid, tmp_path, monkeypatch):
    run_sweep(grid, cache_dir=tmp_path)
    monkeypatch.setattr(
        sweep_cache, "RECORD_VERSION", sweep_cache.RECORD_VERSION + 1
    )
    res = run_sweep(grid, cache_dir=tmp_path)
    assert not any(r.from_cache for r in res.records)


def test_corrupted_entries_are_rebuilt(grid, tmp_path):
    cold = run_sweep(grid, cache_dir=tmp_path)
    entries = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert entries
    for path in entries:
        path.write_bytes(b"\x00garbage\xff" * 3)  # every artifact torn
    res = run_sweep(grid, cache_dir=tmp_path)
    assert not any(r.from_cache for r in res.records)
    _assert_identical(cold, res)
    (info,) = res.engines
    assert info["artifacts"]["corrupt"] > 0
    # the rebuilt store is healthy again
    warm = run_sweep(grid, cache_dir=tmp_path)
    assert all(r.from_cache for r in warm.records)
    _assert_identical(cold, warm)


def test_engine_artifact_roundtrip_partition_and_plan(matrix, tmp_path):
    """The engine-level hook: partitions and compiled CommPlans persist
    and load back apply-ready, bit-identically."""
    cache = ArtifactCache(tmp_path)
    eng = PartitionEngine(matrix, seed=3, artifacts=cache)
    config = PartitionConfig(seed=3)
    plan = eng.plan("s2d-heuristic", 3, config=config)
    cplan = eng.compiled_plan(plan)
    stores = cache.stats["stores"]
    assert stores > 0

    eng2 = PartitionEngine(matrix, seed=3, artifacts=ArtifactCache(tmp_path))
    plan2 = eng2.plan("s2d-heuristic", 3, config=config)
    assert np.array_equal(plan.partition.nnz_part, plan2.partition.nnz_part)
    assert np.array_equal(
        plan.partition.vectors.x_part, plan2.partition.vectors.x_part
    )
    cplan2 = eng2.compiled_plan(plan2)
    x = np.linspace(0.0, 1.0, matrix.shape[1])
    ra, rb = cplan.apply(x), cplan2.apply(x)
    assert np.array_equal(ra.y, rb.y)
    assert ra.ledger.as_dict() == rb.ledger.as_dict()


def test_cache_key_is_deterministic_and_type_strict():
    key = cache_key("partition", 2, "digest", ("plan", 1, (b"\x01", 0.5, None)))
    assert key == cache_key(
        "partition", 2, "digest", ("plan", 1, (b"\x01", 0.5, None))
    )
    assert key != cache_key("partition", 3, "digest", ("plan", 1, (b"\x01", 0.5, None)))
    with pytest.raises(TypeError):
        cache_key("partition", object())
