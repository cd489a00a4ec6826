"""The paper's contribution: semi-two-dimensional (s2D) partitioning.

- :mod:`repro.core.s2d` — the two s2D construction methods of
  Section IV: the per-block DM-optimal split and the bi-objective
  greedy heuristic (Algorithm 1);
- :mod:`repro.core.s2d_bounded` — s2D-b, the mesh-routed variant with
  O(√K) maximum latency (Section VI-B);
- :mod:`repro.core.s2d_mg` — s2D-mg, the medium-grain method of Pelt &
  Bisseling adapted through the composite hypergraph model to emit s2D
  partitions (Section V).

The words and messages these partitions send (eq. 3 and the routed
combine of Section VI-B) are counted once, in the ledgers of the
derivations in :mod:`repro.simulate`.
"""

from repro.core.s2d import s2d_heuristic, s2d_optimal, s2d_rowwise_baseline
from repro.core.s2d_bounded import make_s2d_bounded
from repro.core.s2d_ext import s2d_heuristic_balanced
from repro.core.s2d_mg import partition_s2d_medium_grain

__all__ = [
    "s2d_optimal",
    "s2d_heuristic",
    "s2d_heuristic_balanced",
    "s2d_rowwise_baseline",
    "make_s2d_bounded",
    "partition_s2d_medium_grain",
]
