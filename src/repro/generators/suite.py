"""The named matrix suites mirroring the paper's Table I and Table IV.

Each suite entry is a scaled structural analog of one UFL/SNAP matrix:
the *name* is kept so the benchmark output lines up with the paper, and
the generator is chosen to reproduce the property the paper keys on
(davg, dmax skew, dense rows).  Three scales are provided:

- ``tiny``  — for unit/CI tests (hundreds of nonzeros);
- ``small`` — the default benchmark scale (thousands of nonzeros);
- ``medium`` — closer-to-paper trends, seconds per table (serial
  Table II about 12 s, Table V about 8 s on 2 vCPUs).

Set the environment variable ``REPRO_SCALE`` to override the default
scale of :class:`~repro.experiments.ExperimentConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import scipy.sparse as sp

from repro.errors import ConfigError
from repro.generators.circuit import arrow_matrix, banded_with_dense_rows, circuit_like
from repro.generators.mesh import knn_mesh, poisson3d
from repro.generators.powerlaw import chung_lu
from repro.generators.rmat import rmat
from repro.sparse.properties import MatrixProperties, matrix_properties

__all__ = ["SuiteMatrix", "table1_suite", "table4_suite", "SCALES"]

SCALES = ("tiny", "small", "medium")


@dataclass(frozen=True)
class SuiteMatrix:
    """A named workload: paper analog + its generator."""

    name: str
    paper_name: str
    application: str
    build: Callable[[], sp.coo_matrix]

    def matrix(self) -> sp.coo_matrix:
        return self.build()

    def properties(self) -> MatrixProperties:
        return matrix_properties(self.matrix(), name=self.name)


def _scale_factor(scale: str) -> float:
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; pick one of {SCALES}")
    return {"tiny": 0.25, "small": 1.0, "medium": 3.0}[scale]


def table1_suite(scale: str = "small", seed: int = 1) -> list[SuiteMatrix]:
    """Analogs of Table I (general matrices, mostly low-skew FEM).

    In the paper's table order, which sorts the real matrices by
    nonzero count; the analogs' own counts do not follow it.
    """
    f = _scale_factor(scale)
    n_mesh = max(80, int(220 * f))

    def g(i):  # per-matrix seed, stable across scales
        return seed * 1000 + i

    return [
        SuiteMatrix(
            "crystk02", "crystk02", "materials problem",
            lambda: knn_mesh(max(90, int(260 * f)), 16, dim=3, seed=g(1)),
        ),
        SuiteMatrix(
            "turon_m", "turon_m", "structural engineering",
            lambda: poisson3d(max(5, int(9 * f ** (1 / 3) * 1.4)), seed=g(2)),
        ),
        SuiteMatrix(
            "trdheim", "trdheim", "structural engineering",
            lambda: knn_mesh(max(70, int(190 * f)), 24, dim=2, seed=g(3)),
        ),
        SuiteMatrix(
            "c-big", "c-big", "non-linear optimization",
            lambda: chung_lu(max(250, int(900 * f)), 6.8, gamma=2.25, seed=g(4)),
        ),
        SuiteMatrix(
            "ASIC_680k", "ASIC_680k", "circuit simulation",
            lambda: circuit_like(
                max(300, int(1000 * f)), avg_degree=3.9, ndense=3,
                dense_fraction=0.45, seed=g(5),
            ),
        ),
        SuiteMatrix(
            "3dtube", "3dtube", "structural engineering",
            lambda: knn_mesh(
                n_mesh, 18, dim=3, seed=g(6), dense_rows=1, dense_fraction=0.12,
            ),
        ),
        SuiteMatrix(
            "pkustk12", "pkustk12", "structural engineering",
            lambda: knn_mesh(
                max(100, int(280 * f)), 22, dim=3, seed=g(7),
                dense_rows=2, dense_fraction=0.15,
            ),
        ),
        SuiteMatrix(
            "pattern1", "pattern1", "optimization problem",
            lambda: chung_lu(max(90, int(250 * f)), 40.0, gamma=2.6, seed=g(8)),
        ),
    ]


def table4_suite(scale: str = "small", seed: int = 2) -> list[SuiteMatrix]:
    """Analogs of Table IV (matrices with very dense rows)."""
    f = _scale_factor(scale)

    def g(i):
        return seed * 1000 + i

    n_big = max(300, int(1100 * f))
    return [
        SuiteMatrix(
            "boyd2", "boyd2", "optimization",
            lambda: banded_with_dense_rows(
                n_big, band=1, ndense=2, dense_fraction=0.20, seed=g(1),
            ),
        ),
        SuiteMatrix(
            "lp1", "lp1", "optimization",
            lambda: arrow_matrix(max(280, int(1000 * f)), nfull=2, seed=g(2)),
        ),
        SuiteMatrix(
            "c-big", "c-big", "non-linear opt.",
            lambda: chung_lu(max(250, int(900 * f)), 6.8, gamma=2.25, seed=g(3)),
        ),
        SuiteMatrix(
            "ASIC_680k", "ASIC_680k", "optimization",
            lambda: circuit_like(
                max(300, int(1000 * f)), avg_degree=3.9, ndense=3,
                dense_fraction=0.45, seed=g(4),
            ),
        ),
        SuiteMatrix(
            "ins2", "ins2", "circuit sim.",
            lambda: banded_with_dense_rows(
                max(280, int(950 * f)), band=3, ndense=1, dense_fraction=1.0,
                symmetric_dense=True, seed=g(5),
            ),
        ),
        SuiteMatrix(
            "com-Youtube", "com-Youtube", "Youtube social",
            lambda: chung_lu(max(400, int(1400 * f)), 5.2, gamma=2.2, seed=g(6)),
        ),
        SuiteMatrix(
            "rajat30", "rajat30", "circuit sim.",
            lambda: circuit_like(
                max(320, int(1100 * f)), avg_degree=9.6, ndense=4,
                dense_fraction=0.55, seed=g(7),
            ),
        ),
        SuiteMatrix(
            "rmat_20", "rmat_20", "Graph500 ben.",
            lambda: rmat(
                int(round(10 + math.log2(f))), edge_factor=7.8 / 2, seed=g(8),
            ),
        ),
    ]
