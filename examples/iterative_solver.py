#!/usr/bin/env python
"""Power iteration on a partitioned matrix: SpMV as the inner kernel.

The paper's motivation is iterative solvers: the same SpMV runs
hundreds of times, so per-iteration communication cost compounds.  This
example runs :func:`repro.solvers.power_iteration` (dominant eigenvalue
of a symmetric diffusion-like operator) where every ``y ← A x`` goes
through the compiled SpMV runtime — the partition is compiled once into
a communication plan and each iteration is a pure array apply — and
reports the accumulated communication bill per scheme, including the
BSP cost of the per-iteration global reductions (dot product and norm)
the solver performs.

Run:  python examples/iterative_solver.py
"""

from repro import (
    PartitionConfig,
    partition_1d_rowwise,
    power_iteration,
    s2d_heuristic,
)
from repro.experiments import ExperimentConfig
from repro.generators import knn_mesh
from repro.metrics import format_table

K = 32
ITERS = 30
MACHINE = ExperimentConfig().machine  # the α/β/γ every paper table prices with


def main() -> None:
    a = knn_mesh(800, 8, dim=2, seed=13, dense_rows=2, dense_fraction=0.2)
    # symmetrize values so power iteration converges cleanly
    a = ((a + a.T) * 0.5).tocoo()

    oned = partition_1d_rowwise(a, K, PartitionConfig(seed=4))
    s2d = s2d_heuristic(a, x_part=oned.vectors, nparts=K)

    rows = []
    lams = []
    for p in (oned, s2d):
        # tol=0 keeps every run at the full ITERS multiplies, so the
        # schemes are compared over identical iteration counts.
        res = power_iteration(p, iters=ITERS, tol=0.0, machine=MACHINE)
        lams.append(res.history[-1])
        rows.append(
            [
                p.kind,
                f"{res.history[-1]:.6f}",
                f"{res.sim_time:.0f}",
                res.comm_words,
                res.comm_msgs,
            ]
        )
    print(
        format_table(
            ["scheme", "lambda_max", "sim time", "total words", "total msgs"],
            rows,
            title=f"Power iteration, {ITERS} SpMVs, K={K}",
        )
    )
    # Both schemes compute the same spectral estimate (same numerics)...
    assert abs(lams[0] - lams[1]) < 1e-9
    saved = 1 - rows[1][3] / rows[0][3]
    print()
    print(f"identical eigenvalue estimates; s2D shipped {100 * saved:.0f}% fewer")
    print("words over the whole solve, with the same per-iteration message")
    print("pattern — the compounding benefit the paper's introduction argues.")
    print("(sim time includes the solver's per-iteration reduction costs.)")


if __name__ == "__main__":
    main()
