"""Declarative sweep grids and their compilation into a task DAG.

A :class:`SweepGrid` names the axes of a table-scale experiment —
matrices × schemes × K × seeds × machine models (scales enter through
the matrix references, so one grid can mix scales for scenario
diversity).  :meth:`SweepGrid.tasks` compiles the grid into
:class:`MatrixTask` nodes, the unit the orchestrator schedules:

- **engine affinity** — all cells of one (matrix, base seed) share one
  :class:`~repro.engine.PartitionEngine`, so the s2D family reuses the
  1D hypergraph run, one block structure and one block-DM pass per
  (matrix, K), exactly as the serial table harness does;
- **intra-task DAG order** — cells are topologically ordered by scheme
  dependency (1D before the s2D family, s2D before s2D-b), so the plan
  a derived scheme refines is already memoized when its cell runs;
- **deterministic seed derivation** — a cell's partitioner seed is
  :func:`derive_seed`\\ ``(base, matrix_index, slot)``, a pure function
  of the cell's coordinates.  Parallel workers therefore produce
  records bit-identical to a serial run: no RNG state is shared, and
  nothing depends on execution order.

Everything here is picklable: matrices travel as :class:`MatrixRef`
descriptions (suite name + scale + matrix name, or raw COO arrays) and
are materialized inside the worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.engine.registry import resolve_method
from repro.errors import ConfigError
from repro.simulate.machine import MachineModel

__all__ = [
    "Cell",
    "MatrixRef",
    "MatrixTask",
    "SchemeSpec",
    "SweepGrid",
    "derive_seed",
    "suite_refs",
]

#: Scheme → schemes whose cached plans it refines.  Drives the
#: topological cell ordering inside a task; the engine's memo store is
#: what actually enforces the sharing.
SCHEME_DEPS = {
    "s2d-optimal": ("1d-rowwise",),
    "s2d-heuristic": ("1d-rowwise",),
    "s2d-balanced": ("1d-rowwise",),
    "s2d-bounded": ("s2d-heuristic",),
    "1d-boman": ("1d-rowwise",),
}


def derive_seed(base: int, matrix_index: int, slot: int) -> int:
    """Deterministic partitioner seed of one cell.

    ``base + 10 * matrix_index + slot`` — the same derivation the
    serial table harness has always used (matrices get disjoint decades
    of the seed space; schemes sharing a slot share a hypergraph run).
    """
    return base + 10 * matrix_index + slot


def _scheme_depth(scheme: str) -> int:
    deps = SCHEME_DEPS.get(scheme, ())
    return 1 + max((_scheme_depth(d) for d in deps), default=-1)


@dataclass(frozen=True, eq=False)
class MatrixRef:
    """A picklable recipe for one matrix.

    ``source`` is either ``("suite", which, scale)`` — resolved by name
    through :mod:`repro.generators.suite` inside the worker — or
    ``("coo", row, col, data, shape)`` carrying the arrays directly
    (hence ``eq=False``: generated equality/hash would trip over raw
    ndarray fields; refs compare by identity).
    """

    name: str
    source: tuple
    seed_index: int | None = None
    """Position of this matrix in its *full* suite.  Seed derivation
    uses it when set, so a names-restricted grid partitions each matrix
    with exactly the seeds the full table would — its cells share cache
    artifacts with (and reproduce the rows of) the published tables."""

    @property
    def scale(self) -> str | None:
        return self.source[2] if self.source[0] == "suite" else None

    def suite_entry(self):
        """The :class:`~repro.generators.suite.SuiteMatrix` behind a
        suite-backed ref."""
        from repro.generators.suite import table1_suite, table4_suite

        kind, which, scale = self.source
        if kind != "suite":
            raise ConfigError(f"{self.name!r} is not a suite-backed matrix ref")
        suite = table1_suite(scale) if which == "table1" else table4_suite(scale)
        for sm in suite:
            if sm.name == self.name:
                return sm
        raise ConfigError(f"unknown {which} suite matrix {self.name!r}")

    def materialize(self) -> sp.coo_matrix:
        """Build the matrix (deterministic: generators are seeded)."""
        if self.source[0] == "suite":
            return self.suite_entry().matrix()
        _, row, col, data, shape = self.source
        return sp.coo_matrix(
            (np.asarray(data), (np.asarray(row), np.asarray(col))),
            shape=tuple(shape),
        )

    @staticmethod
    def from_matrix(name: str, a) -> "MatrixRef":
        """Wrap an in-memory matrix (canonicalized) as a ref."""
        from repro.sparse.coo import canonical_coo

        m = canonical_coo(a)
        return MatrixRef(
            name=name, source=("coo", m.row, m.col, m.data, tuple(m.shape))
        )


def suite_refs(
    which: str, scale: str, names: tuple[str, ...] | None = None
) -> tuple[MatrixRef, ...]:
    """Refs for a named suite (``"table1"`` / ``"table4"``), optionally
    restricted to ``names`` — suite order (ascending nnz) and each
    matrix's full-suite ``seed_index`` are kept, so derived seeds line
    up with the tables even in a restricted grid."""
    from repro.generators.suite import table1_suite, table4_suite

    if which not in ("table1", "table4"):
        raise ConfigError(f"unknown suite {which!r}; pick 'table1' or 'table4'")
    suite = table1_suite(scale) if which == "table1" else table4_suite(scale)
    refs = [
        MatrixRef(name=sm.name, source=("suite", which, scale), seed_index=i)
        for i, sm in enumerate(suite)
        if names is None or sm.name in names
    ]
    if names is not None and len(refs) != len(names):
        missing = set(names) - {r.name for r in refs}
        raise ConfigError(f"unknown {which} suite matrices: {sorted(missing)}")
    return tuple(refs)


@dataclass(frozen=True)
class SchemeSpec:
    """One scheme axis entry: method name (aliases fine) + seed slot.

    Schemes sharing a ``slot`` share a partitioner config per (matrix,
    K) — the paper's setup, where s2D refines the 1D run's vector
    partition.  ``opts`` are extra keyword arguments for
    :meth:`~repro.engine.PartitionEngine.plan`, as a sorted tuple of
    ``(name, value)`` pairs of picklable scalars.
    """

    scheme: str
    slot: int = 0
    opts: tuple = ()

    @property
    def canonical(self) -> str:
        return resolve_method(self.scheme)


@dataclass(frozen=True)
class Cell:
    """One grid point inside a task: scheme × K × machine index."""

    scheme: str
    slot: int
    k: int
    machine_index: int
    opts: tuple = ()


@dataclass(frozen=True)
class MatrixTask:
    """One schedulable DAG node: a matrix, a base seed, and its cells
    in topological scheme order.  Executed by one worker with one
    engine; independent of every other task."""

    task_index: int
    matrix_index: int
    ref: MatrixRef
    seed: int
    epsilon: float
    machines: tuple[MachineModel, ...]
    cells: tuple[Cell, ...]

    @property
    def name(self) -> str:
        return self.ref.name


@dataclass(frozen=True)
class SweepGrid:
    """The declarative experiment grid.

    ``matrices`` × ``schemes`` × ``ks`` × ``seeds`` × ``machines``;
    ``epsilon`` is both the partitioner imbalance tolerance and the
    engines' s2D default.
    """

    matrices: tuple[MatrixRef, ...]
    schemes: tuple[SchemeSpec, ...]
    ks: tuple[int, ...]
    seeds: tuple[int, ...] = (42,)
    machines: tuple[MachineModel, ...] = (MachineModel(),)
    epsilon: float = 0.03

    def __post_init__(self) -> None:
        if not (self.matrices and self.schemes and self.ks):
            raise ConfigError("sweep grid needs matrices, schemes and ks")
        if not (self.seeds and self.machines):
            raise ConfigError("sweep grid needs at least one seed and machine")
        for spec in self.schemes:
            spec.canonical  # fail fast on unknown scheme names

    @property
    def ncells(self) -> int:
        return (
            len(self.matrices)
            * len(self.schemes)
            * len(self.ks)
            * len(self.seeds)
            * len(self.machines)
        )

    def tasks(self) -> list[MatrixTask]:
        """Compile the grid into per-(matrix, seed) DAG nodes."""
        ordered = sorted(
            self.schemes, key=lambda s: _scheme_depth(s.canonical)
        )  # stable: caller order within a dependency rank
        tasks = []
        for seed in self.seeds:
            for mi, ref in enumerate(self.matrices):
                seed_index = ref.seed_index if ref.seed_index is not None else mi
                cells = tuple(
                    Cell(
                        scheme=spec.canonical,
                        slot=spec.slot,
                        k=int(k),
                        machine_index=wi,
                        opts=spec.opts,
                    )
                    for k in self.ks
                    for spec in ordered
                    for wi in range(len(self.machines))
                )
                tasks.append(
                    MatrixTask(
                        task_index=len(tasks),
                        matrix_index=seed_index,
                        ref=ref,
                        seed=int(seed),
                        epsilon=self.epsilon,
                        machines=self.machines,
                        cells=cells,
                    )
                )
        return tasks
