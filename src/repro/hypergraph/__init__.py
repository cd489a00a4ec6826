"""From-scratch multilevel hypergraph partitioner (PaToH substitute).

The paper obtains all of its vector/nonzero partitions from PaToH, a
closed-source multilevel hypergraph partitioner.  This package
implements the same algorithmic recipe:

- :mod:`repro.hypergraph.hypergraph` — the pin-CSR data structure;
- :mod:`repro.hypergraph.models` — the hypergraph models of the sparse
  partitioning literature: column-net (1D rowwise), row-net (1D
  columnwise), fine-grain row-column-net (2D), and the medium-grain
  composite model of Pelt & Bisseling;
- :mod:`repro.hypergraph.coarsen` — heavy-connectivity agglomerative
  coarsening;
- :mod:`repro.hypergraph.initial` — greedy hypergraph growing and
  random initial bisections;
- :mod:`repro.hypergraph.refine` — Fiduccia–Mattheyses boundary
  refinement with cut-net metric and multi-constraint balance;
- :mod:`repro.hypergraph.bisect` — the multilevel V-cycle;
- :mod:`repro.hypergraph.partitioner` — recursive-bisection K-way
  driver with cut-net splitting (exactly models the connectivity-1
  communication-volume metric);
- :mod:`repro.hypergraph.legacy` — the seed (pre-vectorization)
  implementation, kept as golden quality reference and benchmark
  baseline.
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
