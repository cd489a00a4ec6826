#!/usr/bin/env python
"""Scale-free SpMV with bounded latency: the paper's Section VI-B story.

On social-network / R-MAT matrices, any 1D-style partition leaves some
processor sending O(K) messages per SpMV; at scale, latency — not
bandwidth — throttles the solve.  This example builds the paper's
rmat_20 analog (a = 0.57, b = c = 0.19, d = 0.05) and compares four
schemes at K = 64:

- 1D rowwise (unbounded messages),
- s2D (same pattern as 1D, less volume),
- 2D-b checkerboard (bounded messages, more volume),
- s2D-b (bounded messages AND s2D's nonzero partition).

Run:  python examples/scale_free_bounded_latency.py
"""

from repro import (
    PartitionConfig,
    evaluate,
    make_s2d_bounded,
    matrix_properties,
    partition_1d_rowwise,
    partition_checkerboard,
    s2d_heuristic,
)
from repro.experiments import ExperimentConfig
from repro.generators import rmat
from repro.metrics import format_table

K = 64
MACHINE = ExperimentConfig().machine  # the α/β/γ every paper table prices with


def main() -> None:
    a = rmat(11, edge_factor=4, seed=20)  # 2048 vertices, Graph500 params
    print(matrix_properties(a, name="rmat analog").table_row())
    print()

    cfg = PartitionConfig(seed=3)
    oned = partition_1d_rowwise(a, K, cfg)
    s2d = s2d_heuristic(a, x_part=oned.vectors, nparts=K)
    s2db = make_s2d_bounded(s2d)
    cb = partition_checkerboard(a, K, cfg)

    rows = []
    for p in (oned, s2d, cb, s2db):
        q = evaluate(p, machine=MACHINE)
        rows.append(
            [
                p.kind,
                q.format_li(),
                q.total_volume,
                f"{q.avg_msgs:.0f}/{q.max_msgs}",
                f"{q.speedup:.1f}",
            ]
        )
    print(
        format_table(
            ["scheme", "LI", "volume", "msgs avg/max", "speedup"],
            rows,
            title=f"Scale-free matrix, K={K} (mesh {8}x{8} for bounded schemes)",
        )
    )
    print()
    print("Note how s2D-b keeps s2D's load balance and most of its volume")
    print("advantage while capping messages at (Pr-1)+(Pc-1) = 14 — the")
    print("combination Tables V and VI of the paper highlight.")


if __name__ == "__main__":
    main()
