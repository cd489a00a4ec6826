"""Declarative sweep grids and their compilation into a task DAG.

A :class:`SweepGrid` names what a table-scale experiment computes —
matrices × schemes × K × seeds, priced under one machine model (scales
enter through the matrix references, so one grid can mix scales for
scenario diversity).  A different machine only re-prices a cell: its
record holds the run's ledger, so ``record.quality.run.speedup(m)``
and ``.time(m)`` give the price under ``m`` with no second partition
or simulation.  :meth:`SweepGrid.tasks` compiles the grid into
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

Everything here is picklable: a matrix travels as a :class:`MatrixRef`
(suite, scale and matrix name) and is materialized inside the worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import scipy.sparse as sp

from repro.engine.registry import resolve_method
from repro.errors import ConfigError
from repro.generators.suite import SCALES, table1_suite, table4_suite
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

_SUITES = {"table1": table1_suite, "table4": table4_suite}


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


def _check_suite(which: str, scale: str) -> None:
    if which not in _SUITES:
        raise ConfigError(f"unknown suite {which!r}; pick 'table1' or 'table4'")
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; pick one of {SCALES}")


@dataclass(frozen=True)
class MatrixRef:
    """One suite matrix by name: matrix ``name`` of suite ``which``
    (``"table1"`` / ``"table4"``) at ``scale``, resolved through
    :mod:`repro.generators.suite` inside the worker.  An unknown suite
    or scale raises :class:`~repro.errors.ConfigError` here."""

    name: str
    which: str
    scale: str
    seed_index: int | None = None
    """Position of this matrix in its *full* suite.  Seed derivation
    uses it when set, so a names-restricted grid partitions each matrix
    with exactly the seeds the full table would — its cells share cache
    artifacts with (and reproduce the rows of) the published tables."""

    def __post_init__(self) -> None:
        _check_suite(self.which, self.scale)

    def suite_entry(self):
        """The :class:`~repro.generators.suite.SuiteMatrix` behind the ref."""
        for sm in _SUITES[self.which](self.scale):
            if sm.name == self.name:
                return sm
        raise ConfigError(f"unknown {self.which} suite matrix {self.name!r}")

    def materialize(self) -> sp.coo_matrix:
        """Build the matrix (deterministic: generators are seeded)."""
        return self.suite_entry().matrix()


def suite_refs(
    which: str, scale: str, names: tuple[str, ...] | None = None
) -> tuple[MatrixRef, ...]:
    """Refs for a named suite (``"table1"`` / ``"table4"``), optionally
    restricted to ``names`` — suite order (the paper's table order, not
    size order) and each matrix's full-suite ``seed_index`` are kept,
    so derived seeds line up with the tables even in a restricted
    grid."""
    _check_suite(which, scale)
    refs = [
        MatrixRef(name=sm.name, which=which, scale=scale, seed_index=i)
        for i, sm in enumerate(_SUITES[which](scale))
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
    partition.
    """

    scheme: str
    slot: int = 0

    @property
    def canonical(self) -> str:
        return resolve_method(self.scheme)


@dataclass(frozen=True)
class Cell:
    """One grid point inside a task: scheme × K."""

    scheme: str
    slot: int
    k: int


@dataclass(frozen=True)
class MatrixTask:
    """One schedulable DAG node: a matrix, a base seed, the machine
    that prices it, and its cells in topological scheme order.
    Executed by one worker with one engine; independent of every other
    task."""

    task_index: int
    matrix_index: int
    ref: MatrixRef
    seed: int
    machine: MachineModel
    cells: tuple[Cell, ...]

    @property
    def name(self) -> str:
        return self.ref.name


def _refuse_repeats(axis: str, label: str, values: list) -> None:
    """Raise :class:`~repro.errors.ConfigError` naming the first value
    ``axis`` lists more than once."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{axis} lists {label.format(value)} twice")
        seen.add(value)


@dataclass(frozen=True)
class SweepGrid:
    """The declarative experiment grid.

    ``matrices`` × ``schemes`` × ``ks`` × ``seeds``, every cell priced
    under ``machine``.  The partitioner's imbalance tolerance is the
    engine's and :class:`~repro.hypergraph.PartitionConfig`'s default.
    """

    matrices: tuple[MatrixRef, ...]
    schemes: tuple[SchemeSpec, ...]
    ks: tuple[int, ...]
    seeds: tuple[int, ...] = (42,)
    machine: MachineModel = MachineModel()

    def __post_init__(self) -> None:
        if not (self.matrices and self.schemes and self.ks):
            raise ConfigError("sweep grid needs matrices, schemes and ks")
        if not self.seeds:
            raise ConfigError("sweep grid needs at least one seed")
        for k in self.ks:
            if int(k) < 1:
                raise ConfigError(f"sweep grid K must be at least 1, got {k}")
        # A repeated coordinate would give two cells one identity.
        _refuse_repeats("ks", "K={}", [int(k) for k in self.ks])
        _refuse_repeats("seeds", "seed {}", [int(s) for s in self.seeds])
        _refuse_repeats("matrices", "{!r}", [ref.name for ref in self.matrices])
        for spec in self.schemes:
            spec.canonical  # fail fast on unknown scheme names

    @property
    def ncells(self) -> int:
        return len(self.matrices) * len(self.schemes) * len(self.ks) * len(self.seeds)

    def tasks(self) -> list[MatrixTask]:
        """Compile the grid into per-(matrix, seed) DAG nodes."""
        ordered = sorted(
            self.schemes, key=lambda s: _scheme_depth(s.canonical)
        )  # stable: caller order within a dependency rank
        cells = tuple(
            Cell(scheme=spec.canonical, slot=spec.slot, k=int(k))
            for k in self.ks
            for spec in ordered
        )
        tasks = []
        for seed in self.seeds:
            for mi, ref in enumerate(self.matrices):
                tasks.append(
                    MatrixTask(
                        task_index=len(tasks),
                        matrix_index=ref.seed_index if ref.seed_index is not None else mi,
                        ref=ref,
                        seed=int(seed),
                        machine=self.machine,
                        cells=cells,
                    )
                )
        return tasks
