"""Experiment harness: regenerates every table and figure of the paper.

One module per artefact family:

- :mod:`repro.experiments.config` — shared scale / machine / seed
  configuration (``REPRO_SCALE`` environment variable);
- :mod:`repro.experiments.figure1` — the worked 10×13 example of
  Figure 1;
- :mod:`repro.experiments.tables` — Tables I–VII, declared as column
  specs in one registry (``TABLES``) and rendered by ``run_table``;
  each declaration also carries the paper's claims about its table,
  judged on any result by ``check_claims``.

The CLI (``python -m repro.cli``), the end-to-end benchmark
(``benchmarks/e2e/``), the tests and the examples all call these
functions, so the numbers in every output channel agree.
"""

from repro.experiments.config import ExperimentConfig, current_scale
from repro.experiments.figure1 import figure1_partition, figure1_report
from repro.experiments.tables import (
    GRID_TABLES,
    TABLES,
    check_claims,
    run_table,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    table_grid,
)

__all__ = [
    "GRID_TABLES",
    "TABLES",
    "ExperimentConfig",
    "check_claims",
    "current_scale",
    "figure1_partition",
    "figure1_report",
    "run_table",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "table_grid",
]
