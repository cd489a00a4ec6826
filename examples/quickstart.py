#!/usr/bin/env python
"""Quickstart: partition a matrix with s2D and compare against 1D.

This walks the paper's core pipeline end to end:

1. build a sparse matrix (a circuit-simulation analog with dense rows
   — the structure 1D partitioning handles worst);
2. compute a 1D rowwise partition with the hypergraph partitioner;
3. refine it into an s2D partition with Algorithm 1 (same vector
   partition, so the communication *pattern* is unchanged);
4. execute both partitions on the distributed-memory simulator and
   compare volume, latency, balance, and modelled speedup.

Run:  python examples/quickstart.py
"""

from repro import (
    PartitionConfig,
    evaluate,
    matrix_properties,
    partition_1d_rowwise,
    s2d_heuristic,
)
from repro.experiments import ExperimentConfig
from repro.generators import circuit_like

K = 16
MACHINE = ExperimentConfig().machine  # the α/β/γ every paper table prices with


def main() -> None:
    # A 1000-row circuit analog: davg ~ 4 but three dense "power nets".
    a = circuit_like(1000, avg_degree=4, ndense=3, dense_fraction=0.45, seed=7)
    print(matrix_properties(a, name="circuit analog").table_row())
    print()

    # --- 1D rowwise (column-net hypergraph model) ---------------------
    oned = partition_1d_rowwise(a, K, PartitionConfig(seed=1))
    q1 = evaluate(oned, machine=MACHINE)

    # --- s2D via Algorithm 1, on the SAME vector partition ------------
    s2d = s2d_heuristic(a, x_part=oned.vectors, nparts=K)
    qs = evaluate(s2d, machine=MACHINE)

    print(f"{'':14}{'1D':>12}{'s2D':>12}")
    print(f"{'LI':14}{q1.format_li():>12}{qs.format_li():>12}")
    print(f"{'volume':14}{q1.total_volume:>12}{qs.total_volume:>12}")
    print(f"{'msgs avg/max':14}{f'{q1.avg_msgs:.0f}/{q1.max_msgs}':>12}"
          f"{f'{qs.avg_msgs:.0f}/{qs.max_msgs}':>12}")
    print(f"{'speedup':14}{q1.speedup:>12.1f}{qs.speedup:>12.1f}")
    print()

    reduction = 1 - qs.total_volume / q1.total_volume
    print(f"s2D moved {100 * reduction:.0f}% of the 1D communication volume away")
    print("while keeping the exact same message pattern (single comm phase).")
    # evaluate() read these volumes from the simulated SpMV's message
    # ledger and verified its y against A @ x.


if __name__ == "__main__":
    main()
