"""repro — semi-two-dimensional (s2D) sparse-matrix partitioning.

A full reproduction of Kayaaslan, Uçar & Aykanat, *"Semi-two-
dimensional partitioning for parallel sparse matrix-vector
multiplication"* (PCO 2015 / IPDPSW), built on from-scratch substrates:
a multilevel hypergraph partitioner, the Dulmage–Mendelsohn
decomposition, and a distributed-memory SpMV simulator.

Quick start::

    import scipy.sparse as sp
    from repro import PartitionEngine

    a = sp.random(1000, 1000, density=0.01) + sp.eye(1000)
    engine = PartitionEngine(a, seed=1)
    oned = engine.plan("1d-rowwise", 16)
    s2d = engine.plan("s2d-heuristic", 16)  # reuses 1D's vectors + analytics
    print(oned.quality().total_volume, s2d.quality().total_volume)

The lower-level construction functions (``partition_1d_rowwise``,
``s2d_heuristic`` …) remain available for one-off use.

See ``DESIGN.md`` for the subsystem inventory and ``EXPERIMENTS.md``
for the reproduced tables/figures.
"""

from repro.core import (
    make_s2d_bounded,
    partition_s2d_medium_grain,
    s2d_heuristic,
    s2d_heuristic_balanced,
    s2d_optimal,
)
from repro.engine import PartitionEngine, Plan, available_methods
from repro.partition.serialize import load_plan, save_plan
from repro.runtime import CommPlan, compile_plan
from repro.solvers import conjugate_gradient, jacobi, power_iteration
from repro.hypergraph import PartitionConfig, partition_kway
from repro.partition import (
    SpMVPartition,
    VectorPartition,
    partition_1d_boman,
    partition_1d_columnwise,
    partition_1d_rowwise,
    partition_2d_finegrain,
    partition_checkerboard,
)
from repro.simulate import (
    MachineModel,
    evaluate,
    run_s2d_bounded,
    run_single_phase,
    run_two_phase,
)
from repro.sparse import matrix_properties, read_matrix_market, write_matrix_market

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # unified pipeline
    "PartitionEngine",
    "Plan",
    "available_methods",
    # s2D core
    "s2d_optimal",
    "s2d_heuristic",
    "s2d_heuristic_balanced",
    "make_s2d_bounded",
    "partition_s2d_medium_grain",
    # compiled runtime
    "CommPlan",
    "compile_plan",
    # solvers and persistence
    "power_iteration",
    "jacobi",
    "conjugate_gradient",
    "save_plan",
    "load_plan",
    # baselines
    "partition_1d_rowwise",
    "partition_1d_columnwise",
    "partition_2d_finegrain",
    "partition_checkerboard",
    "partition_1d_boman",
    # types
    "SpMVPartition",
    "VectorPartition",
    "PartitionConfig",
    "partition_kway",
    # simulation
    "MachineModel",
    "evaluate",
    "run_single_phase",
    "run_two_phase",
    "run_s2d_bounded",
    # sparse utilities
    "matrix_properties",
    "read_matrix_market",
    "write_matrix_market",
]
