"""Iterative solvers on simulated SpMV; partition save/load; 2-phase stats."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import make_s2d_bounded, s2d_heuristic
from repro.errors import ReproError, SimulationError
from repro.hypergraph import PartitionConfig
from repro.partition import partition_1d_rowwise, partition_2d_finegrain
from repro.partition.serialize import load_plan, pack_assignment, unpack_assignment
from repro.simulate import MachineModel, run_two_phase
from repro.solvers import conjugate_gradient, jacobi, power_iteration
from repro.sparse.coo import canonical_coo
from tests.comm_oracle import two_phase_words

CFG = PartitionConfig(seed=51, ninitial=2, fm_passes=2)
M = MachineModel(alpha=10, beta=1, gamma=1)


@pytest.fixture(scope="module")
def spd_partition():
    """An SPD diagonally dominant matrix, 1D-partitioned."""
    rng = np.random.default_rng(8)
    n = 80
    a = sp.random(n, n, density=0.05, random_state=8, format="coo")
    a = (a + a.T) * 0.5
    a = canonical_coo(a + sp.eye(n) * 10.0)
    return partition_1d_rowwise(a, 4, CFG)


# ---------------------------------------------------------------- solvers


def test_power_iteration_matches_dense(spd_partition):
    res = power_iteration(spd_partition, iters=300, tol=1e-12, machine=M)
    dense = spd_partition.matrix.toarray()
    lam_ref = np.max(np.linalg.eigvalsh(dense))
    assert res.history[-1] == pytest.approx(lam_ref, rel=1e-6)
    assert res.converged
    assert res.comm_words > 0 and res.sim_time > 0


def test_jacobi_solves(spd_partition):
    n = spd_partition.matrix.shape[0]
    b = np.arange(1, n + 1, dtype=np.float64)
    res = jacobi(spd_partition, b, iters=500, tol=1e-12, machine=M)
    assert res.converged
    assert np.allclose(spd_partition.matrix @ res.x, b, atol=1e-8)
    # residual history is monotone-ish decreasing overall
    assert res.history[-1] < res.history[0]


def test_cg_solves_faster_than_jacobi(spd_partition):
    n = spd_partition.matrix.shape[0]
    b = np.ones(n)
    rj = jacobi(spd_partition, b, iters=500, tol=1e-10, machine=M)
    rc = conjugate_gradient(spd_partition, b, iters=500, tol=1e-10, machine=M)
    assert rc.converged
    assert np.allclose(spd_partition.matrix @ rc.x, b, atol=1e-7)
    assert rc.iterations <= rj.iterations


def test_cg_on_s2d_and_bounded(spd_partition):
    a = spd_partition.matrix
    s = s2d_heuristic(a, x_part=spd_partition.vectors, nparts=4)
    b = np.ones(a.shape[0])
    rs = conjugate_gradient(s, b, tol=1e-10, machine=M)
    rb = conjugate_gradient(make_s2d_bounded(s), b, tol=1e-10, machine=M)
    assert rs.converged and rb.converged
    assert np.allclose(rs.x, rb.x, atol=1e-8)  # same numerics, other route
    # fewer words for s2D than its routed variant
    assert rs.comm_words <= rb.comm_words


def test_solver_rejects_rectangular():
    a = sp.random(5, 7, density=0.5, random_state=0)
    from repro.partition.types import SpMVPartition, VectorPartition

    p = SpMVPartition(
        matrix=a,
        nnz_part=np.zeros(canonical_coo(a).nnz, dtype=np.int64),
        vectors=VectorPartition(
            x_part=np.zeros(7, dtype=np.int64),
            y_part=np.zeros(5, dtype=np.int64),
            nparts=1,
        ),
        kind="1D",
    )
    with pytest.raises(SimulationError, match="square"):
        power_iteration(p)


def test_cg_converges_on_spd_mesh_operator():
    """CG on a shifted symmetric kNN-mesh operator (SPD by dominance)."""
    from repro.generators.mesh import knn_mesh

    a = knn_mesh(150, 6, dim=2, seed=21).tocoo()
    a = canonical_coo((a + a.T) * 0.5 + sp.eye(150) * 12.0)
    p = partition_1d_rowwise(a, 4, CFG)
    b = np.sin(np.arange(150) / 7.0)
    res = conjugate_gradient(p, b, iters=400, tol=1e-11, machine=M)
    assert res.converged
    assert np.allclose(a @ res.x, b, atol=1e-8)
    assert res.comm_words > 0 and res.sim_time > 0


def test_jacobi_converges_on_diagonally_dominant():
    """Jacobi on a strictly diagonally dominant (non-symmetric) matrix."""
    rng = np.random.default_rng(3)
    n = 60
    a = sp.random(n, n, density=0.08, random_state=3, format="coo")
    dom = np.abs(a.toarray()).sum(axis=1) + 1.0
    a = canonical_coo(a + sp.diags(dom))
    p = partition_1d_rowwise(a, 3, CFG)
    b = rng.standard_normal(n)
    res = jacobi(p, b, iters=400, tol=1e-12, machine=M)
    assert res.converged
    assert np.allclose(a @ res.x, b, atol=1e-9)


def test_comm_bill_is_iterations_times_single_run(spd_partition):
    """The accumulated bill equals iterations × one run's ledger totals —
    the communication profile of a fixed partition is static."""
    from repro.simulate import run_single_phase

    single = run_single_phase(spd_partition).ledger
    n = spd_partition.matrix.shape[0]
    b = np.ones(n)
    for res in (
        power_iteration(spd_partition, iters=7, tol=0.0, machine=M),
        jacobi(spd_partition, b, iters=9, tol=0.0, machine=M),
        conjugate_gradient(spd_partition, b, iters=6, tol=0.0, machine=M),
    ):
        assert res.comm_words == res.iterations * single.total_volume()
        assert res.comm_msgs == res.iterations * single.total_msgs()


def test_power_iteration_residual_finite_at_low_iters(spd_partition):
    """≤2 iterations must still report a finite residual."""
    one = power_iteration(spd_partition, iters=1, machine=M)
    assert one.iterations == 1 and np.isfinite(one.residual)
    two = power_iteration(spd_partition, iters=2, machine=M)
    assert two.iterations == 2 and np.isfinite(two.residual)
    # a tol loose enough to converge immediately also stays finite
    loose = power_iteration(spd_partition, iters=50, tol=1.0, machine=M)
    assert loose.converged and np.isfinite(loose.residual)


def test_solvers_reject_nonpositive_iters(spd_partition):
    from repro.errors import ConfigError

    b = np.ones(spd_partition.matrix.shape[0])
    with pytest.raises(ConfigError, match="iters"):
        power_iteration(spd_partition, iters=0)
    with pytest.raises(ConfigError, match="iters"):
        power_iteration(spd_partition, iters=-3)
    with pytest.raises(ConfigError, match="iters"):
        jacobi(spd_partition, b, iters=0)
    with pytest.raises(ConfigError, match="iters"):
        conjugate_gradient(spd_partition, b, iters=0)


def test_solvers_reject_foreign_plan(spd_partition):
    """A plan compiled from a different matrix must not silently solve
    the wrong system."""
    from repro.generators.mesh import knn_mesh
    from repro.runtime import compile_plan

    other = partition_1d_rowwise(
        canonical_coo(knn_mesh(90, 5, dim=2, seed=2) + sp.eye(90)), 4, CFG
    )
    foreign = compile_plan(other)
    with pytest.raises(SimulationError, match="does not match"):
        power_iteration(spd_partition, plan=foreign)


def test_solvers_accept_precompiled_plan(spd_partition):
    """A precompiled plan yields the same solve as on-the-fly compile."""
    from repro.runtime import compile_plan

    plan = compile_plan(spd_partition)
    base = power_iteration(spd_partition, iters=20, machine=M)
    reused = power_iteration(spd_partition, iters=20, machine=M, plan=plan)
    assert np.array_equal(base.x, reused.x)
    assert base.history == reused.history
    assert base.comm_words == reused.comm_words
    assert base.sim_time == reused.sim_time


def test_solver_matches_per_call_executor_loop(spd_partition):
    """The compiled-runtime solve is bit-identical to a hand loop over
    the per-call executor (the seed's formulation)."""
    from repro.simulate import run_single_phase

    n = spd_partition.matrix.shape[0]
    x = np.ones(n)
    x /= np.linalg.norm(x)
    words = 0
    history = []
    for _ in range(10):
        run = run_single_phase(spd_partition, x)
        history.append(float(x @ run.y))
        words += run.ledger.total_volume()
        x = run.y / np.linalg.norm(run.y)
    res = power_iteration(spd_partition, iters=10, tol=0.0, machine=M)
    assert res.history == history
    assert np.array_equal(res.x, x)
    assert res.comm_words == words


def test_jacobi_rejects_zero_diagonal():
    a = sp.coo_matrix((np.ones(2), ([0, 1], [1, 0])), shape=(2, 2))
    from repro.partition.types import SpMVPartition, VectorPartition

    p = SpMVPartition(
        matrix=a,
        nnz_part=np.array([0, 0]),
        vectors=VectorPartition(
            x_part=np.zeros(2, dtype=np.int64),
            y_part=np.zeros(2, dtype=np.int64),
            nparts=1,
        ),
        kind="1D",
    )
    with pytest.raises(SimulationError, match="diagonal"):
        jacobi(p, np.ones(2))


# ---------------------------------------------------------------- serialize


def test_partition_roundtrip(spd_partition):
    back = unpack_assignment(pack_assignment(spd_partition), spd_partition.matrix)
    assert back.kind == spd_partition.kind
    assert back.nparts == spd_partition.nparts
    assert np.array_equal(back.nnz_part, spd_partition.nnz_part)
    assert np.array_equal(back.vectors.x_part, spd_partition.vectors.x_part)


def test_partition_roundtrip_meta_mesh(spd_partition):
    s = s2d_heuristic(
        spd_partition.matrix, x_part=spd_partition.vectors, nparts=4
    )
    b = make_s2d_bounded(s)
    back = unpack_assignment(pack_assignment(b), b.matrix)
    assert back.kind == "s2D-b"
    assert tuple(back.meta["mesh"]) == tuple(b.meta["mesh"])
    back.validate_s2d()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.plan"
    path.write_bytes(np.random.default_rng(0).bytes(64))
    with pytest.raises(ReproError, match="not a repro save file"):
        load_plan(path)


# ---------------------------------------------------------------- 2-phase stats


def test_two_phase_stats_match_ledger(medium_square):
    p = partition_2d_finegrain(medium_square, 4, CFG)
    expand, fold = two_phase_words(p)
    run = run_two_phase(p)
    for arrays, phase in ((expand, "expand"), (fold, "fold")):
        assert np.array_equal(arrays[0], run.ledger.sent_volume(phase))
        assert np.array_equal(arrays[1], run.ledger.recv_volume(phase))
        assert np.array_equal(arrays[2], run.ledger.sent_msgs(phase))
        assert np.array_equal(arrays[3], run.ledger.recv_msgs(phase))
    assert expand[0].sum() + fold[0].sum() == run.ledger.total_volume()


def test_two_phase_stats_1d_has_empty_fold(medium_square):
    p = partition_1d_rowwise(medium_square, 4, CFG)
    ledger = run_two_phase(p).ledger
    assert ledger.sent_volume("fold").sum() == 0
    assert ledger.sent_volume("expand").sum() > 0


#: ``sim_time.hex()`` of (power, Jacobi, CG) after 12 iterations on the
#: golden partitions with SPD values on their pattern, under
#: ``_ODD_MACHINE`` — recorded when ``reduction_cost`` still recomputed
#: its two increments on every call.
_SIM_TIME_PINS = {
    "s2d/single": ("0x1.0ccd916872b04p+10", "0x1.b64e560418939p+9", "0x1.10f0c49ba5e38p+10"),
    "s2d-bounded/routed": (
        "0x1.09cd916872b04p+10", "0x1.b04e560418939p+9", "0x1.0df0c49ba5e38p+10",
    ),
    "finegrain/two": ("0x1.6acc8b4395812p+10", "0x1.392624dd2f1abp+10", "0x1.6eefbe76c8b45p+10"),
}
_ODD_MACHINE = MachineModel(alpha=7.3, beta=0.9, gamma=0.013)


def test_solver_sim_time_pinned_on_golden_instances():
    """The simulated time is the same ``+=`` sequence bit for bit: the
    per-reduction increments are precomputed, not re-derived."""
    from repro.partition.types import SpMVPartition

    from tests.golden_runtime import golden_instances

    for label, p, _mode in golden_instances()[1:4]:
        a = p.matrix
        values = np.where(a.row == a.col, 100.0, -1.0)  # PD symmetric part
        q = SpMVPartition(
            matrix=sp.coo_matrix((values, (a.row, a.col)), shape=a.shape),
            nnz_part=p.nnz_part, vectors=p.vectors, kind=p.kind, meta=p.meta,
        )
        b = np.ones(a.shape[0])
        got = (
            power_iteration(q, iters=12, tol=0.0, machine=_ODD_MACHINE).sim_time,
            jacobi(q, b, iters=12, tol=0.0, machine=_ODD_MACHINE).sim_time,
            conjugate_gradient(q, b, iters=12, tol=0.0, machine=_ODD_MACHINE).sim_time,
        )
        assert tuple(t.hex() for t in got) == _SIM_TIME_PINS[label], label
