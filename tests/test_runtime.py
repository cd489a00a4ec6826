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
from repro.partition.serialize import load_plan, pack_assignment, save_plan
from repro.runtime import CommPlan, compile_plan
from repro.simulate import MachineModel
from repro.simulate.common import PHASES
from repro.simulate.report import EXECUTORS, run_partition

from tests.conftest import cli_usage_error, random_s2d_partition
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


def test_phase_tables_cover_all_executors(partitioned_instances):
    """``PHASES`` is every model's one phase list: each compiled plan
    names exactly its model's comm phases, in order, and books its
    ledger in an ordered subset of them."""
    assert set(PHASES) == set(EXECUTORS.values())
    seen = set()
    for p, mode in partitioned_instances:
        plan = compile_plan(p)
        assert plan.executor == mode
        comm = [ph.comm_phase for ph in plan.phases if ph.comm_phase is not None]
        assert comm == [ph.name for ph in plan.phases if ph.comm_phase] == list(PHASES[mode])
        names = plan.ledger.phase_names
        assert names == [ph for ph in PHASES[mode] if ph in names]
        seen.add(mode)
    assert seen == {"single", "two", "routed"}


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
        path = tmp_path / f"plan{i}.plan"
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
    save_plan(plan, tmp_path / "b.plan")
    back = load_plan(tmp_path / "b.plan")
    assert tuple(back.meta["mesh"]) == tuple(plan.meta["mesh"])


def framed(header: dict, arrays=()) -> bytes:
    """A payload in the documented layout, made by hand: a 4-byte
    little-endian header length, the JSON header padded with spaces to
    an 8-byte boundary, then each array's raw bytes zero-padded to a
    multiple of 8."""
    text = json.dumps(header).encode()
    text += b" " * (-(4 + len(text)) % 8)
    out = len(text).to_bytes(4, "little") + text
    for a in arrays:
        raw = np.ascontiguousarray(a).tobytes()
        out += raw + bytes(-len(raw) % 8)
    return out


def partition_payload(p, **header) -> bytes:
    """Partition ``p`` (with its matrix) framed under a JSON header of
    ``header``: a save payload, but not a plan."""
    m = p.matrix
    return framed(header, [m.row, m.col, m.data, p.nnz_part, p.vectors.x_part])


def test_load_plan_rejects_partition_file(tmp_path, partitioned_instances):
    p, _ = partitioned_instances[0]
    path = tmp_path / "part.plan"
    path.write_bytes(partition_payload(p, version=2, payload="partition"))
    with pytest.raises(ReproError, match="holds a 'partition' save"):
        load_plan(path)
    # The artifact cache's partition payload is framed alike, and is no plan.
    path.write_bytes(pack_assignment(p))
    with pytest.raises(ReproError, match="holds a 'assignment' save"):
        load_plan(path)


def test_unknown_version_rejected(tmp_path, partitioned_instances):
    (tmp_path / "future.plan").write_bytes(framed({"version": 99}))
    with pytest.raises(ReproError, match="version 99"):
        load_plan(tmp_path / "future.plan")
    # A version-1 file predates the payload tag; nothing reads it now.
    p, _ = partitioned_instances[0]
    (tmp_path / "v1.plan").write_bytes(
        partition_payload(p, version=1, kind=p.kind, nparts=p.nparts)
    )
    with pytest.raises(ReproError, match="version 1 "):
        load_plan(tmp_path / "v1.plan")


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


def _per_pair_phase_pairs(ledger, phase):
    """``Ledger.phase_pairs`` as it was first written: the sorted pairs,
    then each pair's words looked up one by one."""
    book = ledger._phases.get(phase, {})
    if not book:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    pairs = np.array(sorted(book), dtype=np.int64)
    words = np.array([book[(s, d)] for s, d in map(tuple, pairs)], dtype=np.int64)
    return pairs[:, 0], pairs[:, 1], words


def test_ledger_phase_pairs_matches_the_per_pair_lookup(partitioned_instances):
    """The one-pass phase_pairs returns the arrays of the per-pair
    lookup on every golden plan's every phase, and on an empty one."""
    for p, _ in partitioned_instances:
        ledger = compile_plan(p).ledger
        for name in [*ledger.phase_names, "no-such-phase"]:
            got, want = ledger.phase_pairs(name), _per_pair_phase_pairs(ledger, name)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)


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


def test_cli_solve_rejects_missing_matrix(capsys):
    assert "exactly one of --matrix / --mtx" in cli_usage_error(capsys, ["solve", "--k", "4"])
