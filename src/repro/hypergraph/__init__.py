"""From-scratch multilevel hypergraph partitioner (PaToH substitute).

The paper obtains all of its vector/nonzero partitions from PaToH, a
closed-source multilevel hypergraph partitioner.  This package
implements the same algorithmic recipe, whose loops run in one C
driver (``repro.native``'s kernels, which every partitioning call
needs):

- :mod:`repro.hypergraph.hypergraph` — the pin-CSR data structure;
- :mod:`repro.hypergraph.models` — the hypergraph models of the sparse
  partitioning literature: column-net (1D rowwise), row-net (1D
  columnwise), fine-grain row-column-net (2D), and the medium-grain
  composite model of Pelt & Bisseling;
- :mod:`repro.hypergraph.bisect` — the multilevel V-cycle:
  heavy-connectivity matching, greedy-growing and random initial
  bisections, Fiduccia–Mattheyses refinement with the cut-net metric
  and multi-constraint balance;
- :mod:`repro.hypergraph.partitioner` — the recursive-bisection K-way
  driver with cut-net splitting (exactly models the connectivity-1
  communication-volume metric), a direct K-way polish and the quality
  metrics.
"""

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.models import (
    column_net_model,
    fine_grain_model,
    medium_grain_model,
    medium_grain_split,
    row_net_model,
)
from repro.hypergraph.partitioner import (
    PartitionConfig,
    connectivity_minus_one,
    cutnet_cost,
    imbalance,
    partition_kway,
)

__all__ = [
    "Hypergraph",
    "column_net_model",
    "row_net_model",
    "fine_grain_model",
    "medium_grain_model",
    "medium_grain_split",
    "PartitionConfig",
    "partition_kway",
    "connectivity_minus_one",
    "cutnet_cost",
    "imbalance",
]
