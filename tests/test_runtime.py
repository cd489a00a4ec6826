"""Compiled SpMV runtime: golden bit-identity of plans and simulators.

``compile_plan(p).apply(x)`` and the per-call ``run_single_phase`` /
``run_two_phase`` / ``run_s2d_bounded`` must reproduce the committed
digests of ``tests/fixtures/runtime_golden.json`` and stay
bit-identical to each other — on suite matrices, real partitioner
output, random admissible partitions and rectangular instances — plus
plan persistence, the engine's memoized
``compiled_plan`` intermediate and the CLI ``solve`` subcommand.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.engine import PartitionEngine
from repro.errors import ConfigError, PartitionError, ReproError, SimulationError
from repro.hypergraph import PartitionConfig
from repro.partition.serialize import load_partition, load_plan, save_partition, save_plan
from repro.runtime import CommPlan, compile_plan
from repro.simulate import MachineModel
from repro.simulate.report import run_partition

from tests.conftest import random_s2d_partition
from tests.golden_runtime import LABELS, check, golden_instances

CFG = PartitionConfig(seed=23, ninitial=2, fm_passes=2)


def _assert_matches_executor(p, plan, x):
    """plan.apply(x) must be bit-identical to the per-call executor."""
    ref = run_partition(p, x)
    run = plan.apply(x)
    assert np.array_equal(run.y, ref.y)
    assert run.ledger.phase_names == ref.ledger.phase_names
    assert run.ledger.as_dict() == ref.ledger.as_dict()
    assert len(run.phases) == len(ref.phases)
    for got, want in zip(run.phases, ref.phases):
        assert got.name == want.name
        assert got.comm_phase == want.comm_phase
        if want.flops is None:
            assert got.flops is None
        else:
            assert np.array_equal(got.flops, want.flops)
    assert run.nnz == ref.nnz and run.kind == ref.kind


@pytest.fixture(scope="module")
def partitioned_instances():
    """(partition, expected executor) across all three execution models,
    in :data:`tests.golden_runtime.LABELS` order."""
    return [(p, mode) for _, p, mode in golden_instances()]


def test_golden_fixture_pins_plan_and_simulator(partitioned_instances):
    """Both ``compile_plan(p).apply(x)`` and ``run_partition(p, x)``
    reproduce the committed digests: ``y`` bytes, ledger, phase flops
    and every plan array."""
    labelled = [(label, p, mode) for label, (p, mode) in zip(LABELS, partitioned_instances)]
    assert check(labelled) == []


def test_apply_bit_identical_to_executors(partitioned_instances):
    rng = np.random.default_rng(11)
    for p, mode in partitioned_instances:
        plan = compile_plan(p)
        assert plan.executor == mode
        for _ in range(3):  # repeated applies, fresh x each time
            _assert_matches_executor(p, plan, rng.standard_normal(p.matrix.shape[1]))


def test_apply_default_x_matches_executor(partitioned_instances):
    for p, _ in partitioned_instances:
        plan = compile_plan(p)
        assert np.array_equal(plan.apply_y(), run_partition(p).y)


def test_static_costs_match_executor_run(partitioned_instances):
    machine = MachineModel(alpha=50, beta=2, gamma=1)
    for p, _ in partitioned_instances:
        plan = compile_plan(p)
        ref = run_partition(p)
        assert plan.words == ref.ledger.total_volume()
        assert plan.msgs == ref.ledger.total_msgs()
        assert plan.time(machine) == ref.time(machine)


def test_plan_rejects_wrong_x_size(partitioned_instances):
    p, _ = partitioned_instances[0]
    plan = compile_plan(p)
    with pytest.raises(SimulationError, match="size"):
        plan.apply_y(np.ones(plan.ncols + 1))


@pytest.mark.parametrize(
    "backend", ["numpy", pytest.param("native", marks=pytest.mark.native)]
)
def test_column_vector_x_rejected(partitioned_instances, backend):
    """An (ncols, 1) column vector is rejected, naming its shape, by
    the plan under either backend and by the simulator."""
    p, _ = partitioned_instances[0]
    plan = compile_plan(p)
    col = np.ones((plan.ncols, 1))
    with pytest.raises(SimulationError, match=r"shape \(\d+, 1\)"):
        plan.apply_y(col, backend=backend)
    with pytest.raises(SimulationError, match=r"shape \(\d+, 1\)"):
        run_partition(p, col)


def test_compile_rejects_unknown_executor(partitioned_instances):
    p, _ = partitioned_instances[0]
    with pytest.raises(ConfigError, match="unknown executor"):
        compile_plan(p, executor="mystery")


def test_compile_validates_like_executor(rng, medium_square):
    """Compilation inherits the executor's admissibility check."""
    p = random_s2d_partition(rng, medium_square, 4)
    p.nnz_part = p.nnz_part.copy()
    bad = np.flatnonzero(
        (p.vectors.y_part[p.matrix.row] != 0) & (p.vectors.x_part[p.matrix.col] != 0)
    )
    p.nnz_part[bad[0]] = 0  # assign a nonzero to neither owner
    with pytest.raises(PartitionError):
        compile_plan(p)


def test_forced_executor_modes_agree_on_y(partitioned_instances):
    """An s2D partition runs under both models; numerics differ only in
    summation order, so results agree to round-off."""
    p, _ = partitioned_instances[1]  # s2D
    single = compile_plan(p, executor="single")
    two = compile_plan(p, executor="two")
    x = np.linspace(-1, 1, p.matrix.shape[1])
    assert np.allclose(single.apply_y(x), two.apply_y(x), rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------- persistence


def test_plan_roundtrip(tmp_path, partitioned_instances):
    rng = np.random.default_rng(41)
    machine = MachineModel()
    for i, (p, _) in enumerate(partitioned_instances):
        plan = compile_plan(p)
        path = tmp_path / f"plan{i}.npz"
        save_plan(plan, path)
        back = load_plan(path)
        assert isinstance(back, CommPlan)
        assert (back.executor, back.kind, back.nparts) == (
            plan.executor,
            plan.kind,
            plan.nparts,
        )
        x = rng.standard_normal(p.matrix.shape[1])
        assert np.array_equal(back.apply_y(x), plan.apply_y(x))
        assert back.ledger.as_dict() == plan.ledger.as_dict()
        assert back.time(machine) == plan.time(machine)
        _assert_matches_executor(p, back, rng.standard_normal(p.matrix.shape[1]))


def test_plan_roundtrip_keeps_mesh_meta(tmp_path, partitioned_instances):
    plan = compile_plan(partitioned_instances[2][0])  # s2D-b
    save_plan(plan, tmp_path / "b.npz")
    back = load_plan(tmp_path / "b.npz")
    assert tuple(back.meta["mesh"]) == tuple(plan.meta["mesh"])


def test_load_partition_rejects_plan_file(tmp_path, partitioned_instances):
    p, _ = partitioned_instances[0]
    save_plan(compile_plan(p), tmp_path / "plan.npz")
    with pytest.raises(ReproError, match="comm-plan"):
        load_partition(tmp_path / "plan.npz")


def test_load_plan_rejects_partition_file(tmp_path, partitioned_instances):
    p, _ = partitioned_instances[0]
    save_partition(p, tmp_path / "part.npz")
    with pytest.raises(ReproError, match="load_plan|partition"):
        load_plan(tmp_path / "part.npz")


@pytest.mark.parametrize("loader", [load_partition, load_plan])
def test_unknown_version_rejected(tmp_path, loader):
    header = np.frombuffer(json.dumps({"version": 99}).encode(), dtype=np.uint8)
    np.savez(tmp_path / "future.npz", header=header)
    with pytest.raises(ReproError, match="version 99"):
        loader(tmp_path / "future.npz")


def test_version1_partition_files_still_load(tmp_path, partitioned_instances):
    """Files written before the payload tag existed (version 1) load."""
    p, _ = partitioned_instances[0]
    header = {
        "version": 1,
        "kind": p.kind,
        "nparts": p.nparts,
        "shape": list(p.matrix.shape),
        "meta": {},
    }
    np.savez(
        tmp_path / "v1.npz",
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        row=p.matrix.row,
        col=p.matrix.col,
        data=p.matrix.data,
        nnz_part=p.nnz_part,
        x_part=p.vectors.x_part,
        y_part=p.vectors.y_part,
    )
    back = load_partition(tmp_path / "v1.npz")
    assert np.array_equal(back.nnz_part, p.nnz_part)


def test_ledger_phase_pairs_roundtrip(partitioned_instances):
    """phase_pairs is the round-trip partner of record_pairs."""
    from repro.simulate.messages import Ledger

    plan = compile_plan(partitioned_instances[2][0])  # s2D-b: multiple phases
    rebuilt = Ledger(plan.nparts)
    for name in plan.ledger.phase_names:
        rebuilt.record_pairs(name, *plan.ledger.phase_pairs(name))
    assert rebuilt.as_dict() == plan.ledger.as_dict()
    empty = plan.ledger.phase_pairs("no-such-phase")
    assert all(a.size == 0 for a in empty)


# ---------------------------------------------------------------- engine + CLI


def test_engine_memoizes_compiled_plan(medium_square):
    eng = PartitionEngine(medium_square, seed=9)
    plan = eng.plan("1d-rowwise", 4)
    first = eng.compiled_plan(plan)
    misses = eng.cache_stats["misses"]
    again = eng.compiled_plan(plan)
    assert again is first
    assert eng.cache_stats["misses"] == misses
    assert np.array_equal(first.apply_y(), run_partition(plan.partition).y)


def test_cli_solve_power(capsys):
    rc = main(
        [
            "solve", "--matrix", "trdheim", "--scale", "tiny", "--k", "4",
            "--solver", "power", "--iters", "8",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "solver=power" in out
    assert "iterations=" in out
    assert "per-iteration plan:" in out


def test_cli_solve_rejects_missing_matrix():
    with pytest.raises(SystemExit):
        main(["solve", "--k", "4"])
