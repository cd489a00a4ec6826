#!/usr/bin/env python
"""FEM partition study: when does s2D *not* help much?

The paper is explicit that the s2D advantage tracks row-degree skew:
trdheim (near-regular FEM) improves only ~2%, ASIC_680k (dense rows)
~96%.  This example sweeps a family of k-NN "stiffness" matrices with
an increasing number of planted dense rows and plots (as a text table)
how the s2D volume reduction grows with the skew — the mechanism, not
just the headline.

Run:  python examples/fem_partition_study.py
"""

from repro import PartitionConfig, evaluate, partition_1d_rowwise, s2d_heuristic
from repro.generators import knn_mesh
from repro.metrics import format_li, format_table
from repro.sparse.properties import matrix_properties

K = 32


def main() -> None:
    rows = []
    for dense_rows in (0, 1, 2, 4, 8):
        a = knn_mesh(
            600, 10, dim=3, seed=31, dense_rows=dense_rows, dense_fraction=0.25
        )
        props = matrix_properties(a)
        oned = partition_1d_rowwise(a, K, PartitionConfig(seed=2))
        s2d = s2d_heuristic(a, x_part=oned.vectors, nparts=K)
        v1 = evaluate(oned).total_volume
        vs = evaluate(s2d).total_volume
        rows.append(
            [
                dense_rows,
                f"{props.row_skew:.1f}",
                v1,
                vs,
                f"{100 * (1 - vs / v1):.1f}%",
                format_li(oned.load_imbalance()),
                format_li(s2d.load_imbalance()),
            ]
        )
    print(
        format_table(
            ["dense rows", "skew", "vol 1D", "vol s2D", "reduction",
             "LI 1D", "LI s2D"],
            rows,
            title=f"s2D volume reduction vs row-degree skew (k-NN mesh, K={K})",
        )
    )
    print()
    print("Regular meshes leave s2D little to improve (the paper's trdheim);")
    print("every planted dense row hands Algorithm 1 a horizontal block whose")
    print("reassignment converts many x-words into one partial-y word.")


if __name__ == "__main__":
    main()
