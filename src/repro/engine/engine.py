"""The unified partitioning pipeline: :class:`PartitionEngine`.

One engine wraps one matrix and memoizes every intermediate the
partitioning methods share:

- the canonical COO form (computed once, at construction; its
  arrays are read-only, and every partition built from it shares
  them instead of re-sorting, see :func:`repro.sparse.coo.canonical_coo`);
- hypergraph vector partitions, keyed by (method, K, partitioner
  config) — an s2D plan and the 1D plan it refines share one
  hypergraph run;
- the :class:`~repro.sparse.blocks.BlockStructure` and the batched
  block-DM results, keyed by the vector partition's content hash —
  ``s2d-optimal``, ``s2d-heuristic`` and ``s2d-bounded`` on the same
  vectors share one block-analytics pass;
- simulated :class:`~repro.simulate.machine.SpMVRun` executions, keyed
  by plan — re-pricing a run under a different machine model is free.

``plan()`` itself is memoized, so a table experiment comparing five
methods on one matrix touches the matrix's block structure exactly
once.  The memo holds each plan's partition and only a weak reference
to the :class:`Plan` around it: a plan points back at its engine, and
a memo holding plans made every engine a reference cycle, whose
memory only a full garbage collection could free.  Without the cycle
a dropped engine is freed at once.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import astuple, dataclass, field

import numpy as np

from repro import obs
from repro.dm.batch import BlockDMTable, batched_block_dm
from repro.engine.registry import METHODS, resolve_method
from repro.hypergraph import PartitionConfig
from repro.partition.types import SpMVPartition, VectorPartition
from repro.runtime import CommPlan, compile_plan
from repro.simulate.machine import MachineModel, SpMVRun
from repro.simulate.report import PartitionQuality, run_partition, summarize
from repro.sparse.blocks import BlockStructure
from repro.sparse.coo import canonical_coo

__all__ = ["PartitionEngine", "Plan"]


@dataclass
class Plan:
    """One partitioning result produced by :meth:`PartitionEngine.plan`.

    Holds the constructed :class:`SpMVPartition` plus enough context to
    evaluate it lazily through the engine's run cache.
    """

    method: str
    nparts: int
    partition: SpMVPartition
    engine: "PartitionEngine" = field(repr=False)
    key: tuple = field(repr=False, default=())

    @property
    def kind(self) -> str:
        return self.partition.kind

    def quality(self, machine: MachineModel | None = None) -> PartitionQuality:
        """Evaluate (simulate + summarise) through the engine's caches."""
        return self.engine.evaluate(self, machine=machine)


def _digest(*arrays: np.ndarray) -> bytes:
    h = hashlib.sha1()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


def _reachable_ndarray_bytes(values) -> int:
    """Total ``nbytes`` of the distinct ndarrays reachable from
    ``values`` through containers and object attributes.

    Arrays are deduplicated by identity (a vector partition shared by
    five plans counts once).  Engine back-references (``Plan.engine``)
    are not descended into, so the walk stays within one memo store.
    """
    seen: set[int] = set()
    total = 0
    work = list(values)
    while work:
        obj = work.pop()
        if isinstance(obj, PartitionEngine):
            continue
        oid = id(obj)
        if oid in seen:
            continue
        seen.add(oid)
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, dict):
            work.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            work.extend(obj)
        elif hasattr(obj, "__dict__"):
            work.extend(vars(obj).values())
    return total


class PartitionEngine:
    """Unified partition/evaluate pipeline over one matrix.

    Parameters
    ----------
    a:
        Anything :func:`repro.sparse.coo.canonical_coo` accepts.
    seed, epsilon:
        Defaults for partitioner configs created via :meth:`partitioner`
        and for the s2D load tolerance.
    machine:
        Default cost model for :meth:`evaluate`.
    artifacts:
        Optional persistent artifact store (duck-typed; see
        :class:`repro.sweep.cache.ArtifactCache`).  When set, built
        partitions and compiled communication plans are written through
        to disk keyed on the matrix digest plus the full plan key, and
        :meth:`plan` / :meth:`compiled_plan` consult the store before
        building — a warm process reconstructs a table's plans from
        pure cache reads.  ``fetch_partition`` receives this engine's
        canonical matrix and rebuilds the partition around it.
    """

    def __init__(
        self,
        a,
        *,
        seed: int = 42,
        epsilon: float = 0.03,
        machine: MachineModel | None = None,
        artifacts=None,
    ) -> None:
        self._matrix = canonical_coo(a)
        self.seed = seed
        self.epsilon = epsilon
        self.machine = machine or MachineModel()
        self.artifacts = artifacts
        self._store: dict = {}
        # key -> the live Plan around a memoized partition (weak: a plan
        # references its engine, see the module docstring).
        self._plans: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._matrix_digest: str | None = None
        self.cache_stats = {"hits": 0, "misses": 0}
        obs.register_engine(self)

    # ------------------------------------------------------------------
    # Memo substrate
    # ------------------------------------------------------------------

    @property
    def matrix(self):
        """The canonical COO matrix every method partitions."""
        return self._matrix

    @property
    def matrix_digest(self) -> str:
        """Content digest of the canonical matrix (pattern + values +
        shape).  The persistent-cache component that makes artifact
        keys content-addressed: two engines over equal matrices share
        disk artifacts, any change to the matrix invalidates them."""
        if self._matrix_digest is None:
            h = hashlib.sha1()
            h.update(repr(self._matrix.shape).encode())
            h.update(_digest(self._matrix.row, self._matrix.col, self._matrix.data))
            self._matrix_digest = h.hexdigest()
        return self._matrix_digest

    def _memo(self, key: tuple, build):
        if key in self._store:
            self.cache_stats["hits"] += 1
            obs.add("engine.cache_hits")
            return self._store[key]
        self.cache_stats["misses"] += 1
        obs.add("engine.cache_misses")
        value = build()
        self._store[key] = value
        return value

    def cache_info(self) -> dict:
        """Hit/miss counters, stored-entry count, and ``cached_bytes``
        — the total ``nbytes`` of every distinct ndarray reachable from
        the memo store.  Sweep workers log it to track per-engine
        memory pressure across a long grid."""
        return {
            **self.cache_stats,
            "entries": len(self._store),
            "cached_bytes": _reachable_ndarray_bytes(self._store.values()),
        }

    # -- keys ----------------------------------------------------------

    @staticmethod
    def _config_key(config: PartitionConfig | None) -> tuple:
        return ("default-config",) if config is None else astuple(config)

    def _vectors_key(self, vectors: VectorPartition) -> tuple:
        return (
            "vectors",
            vectors.nparts,
            _digest(vectors.x_part, vectors.y_part),
        )

    def _opts_key(self, opts: dict) -> tuple:
        items = []
        for name in sorted(opts):
            value = opts[name]
            if isinstance(value, VectorPartition):
                items.append((name, self._vectors_key(value)))
            elif isinstance(value, SpMVPartition):
                items.append(
                    (name, (value.kind, value.nparts, _digest(value.nnz_part)))
                )
            elif isinstance(value, np.ndarray):
                items.append((name, (value.shape, _digest(value))))
            else:
                items.append((name, value))
        return tuple(items)

    # ------------------------------------------------------------------
    # Shared intermediates
    # ------------------------------------------------------------------

    def partitioner(self, seed_offset: int = 0) -> PartitionConfig:
        """A deterministic partitioner config derived from the engine seed."""
        return PartitionConfig(epsilon=self.epsilon, seed=self.seed + seed_offset)

    def block_structure(self, vectors: VectorPartition) -> BlockStructure:
        """Memoized K×K block structure under ``vectors``."""
        key = ("block-structure", self._vectors_key(vectors))
        return self._memo(
            key,
            lambda: BlockStructure(
                self._matrix.row,
                self._matrix.col,
                vectors.x_part,
                vectors.y_part,
                vectors.nparts,
            ),
        )

    def block_dm(self, vectors: VectorPartition) -> BlockDMTable:
        """Memoized batched coarse-DM table of all off-diagonal blocks
        (read-only, so every s2D construction shares it)."""
        key = ("block-dm", self._vectors_key(vectors))
        return self._memo(
            key, lambda: batched_block_dm(self.block_structure(vectors))
        )

    # ------------------------------------------------------------------
    # Planning and evaluation
    # ------------------------------------------------------------------

    def plan_key(
        self,
        method: str,
        nparts: int,
        *,
        config: PartitionConfig | None = None,
        **opts,
    ) -> tuple:
        """The full memo/artifact key :meth:`plan` would use.

        Public so the sweep orchestrator can address persistent
        artifacts (cached cell records) without building the plan
        first.  ``config=None`` keys the engine-default config, exactly
        as :meth:`plan` resolves it."""
        if config is None:
            config = self.partitioner()
        return (
            "plan",
            resolve_method(method),
            int(nparts),
            self._config_key(config),
            self._opts_key(opts),
            ("defaults", self.epsilon),
        )

    def plan(
        self,
        method: str,
        nparts: int,
        *,
        config: PartitionConfig | None = None,
        **opts,
    ) -> Plan:
        """Build (or fetch) the partition of ``method`` at ``nparts``.

        ``config`` seeds the hypergraph stage where the method has one;
        omitted, it defaults to :meth:`partitioner` so the engine's
        ``seed`` actually governs the result.  Method-specific options
        (``w_lim``, ``shape``, ``vectors`` …) pass through ``opts`` and
        participate in the memo key, as does the engine-level
        ``epsilon`` default the s2D builders fall back to.  While a
        returned plan is alive, later calls return that same object.
        """
        name = resolve_method(method)
        if config is None:
            config = self.partitioner()
        key = self.plan_key(name, nparts, config=config, **opts)

        def build() -> SpMVPartition:
            partition = None
            if self.artifacts is not None:
                partition = self.artifacts.fetch_partition(
                    self.matrix_digest, key, self._matrix
                )
            if partition is None:
                partition = METHODS[name](self, nparts, config, opts)
                if self.artifacts is not None:
                    self.artifacts.store_partition(self.matrix_digest, key, partition)
            return partition

        with obs.span("engine.plan", method=name, k=int(nparts)):
            partition = self._memo(key, build)
        plan = self._plans.get(key)
        if plan is None:
            plan = Plan(
                method=name, nparts=int(nparts), partition=partition, engine=self, key=key
            )
            self._plans[key] = plan
        return plan

    def run(self, plan: Plan, x: np.ndarray | None = None) -> SpMVRun:
        """Memoized simulated SpMV execution of a plan."""
        xkey = ("run", plan.key, None if x is None else (x.shape, _digest(x)))
        with obs.span("engine.run", method=plan.method, k=plan.nparts):
            return self._memo(xkey, lambda: run_partition(plan.partition, x))

    def compiled_plan(self, plan: Plan, *, verify: bool = False) -> CommPlan:
        """Memoized communication plan compiled from ``plan``'s partition.

        The :class:`~repro.runtime.CommPlan` sits next to the block
        structure and DM results as a shared intermediate: the solvers,
        the CLI ``solve`` subcommand and repeated-apply workloads all
        fetch one compiled plan per (method, K, config) instead of
        re-deriving the message structure per multiply.

        ``verify=True`` runs the static plan-IR checker
        (:func:`repro.verify.verify_plan`) on the result — whether
        freshly compiled, memoized, or fetched from the artifact store
        — raising :class:`~repro.errors.VerificationError` on any
        violation.  Verification is not part of the memo key: it is a
        read-only audit of the same plan object.
        """
        key = ("comm-plan", plan.key)

        def build() -> CommPlan:
            # The artifact store applies its own "comm-plan" tag, so it
            # is addressed by the bare plan key (see cache-key anatomy
            # in DESIGN.md).
            if self.artifacts is not None:
                cached = self.artifacts.fetch_plan(self.matrix_digest, plan.key)
                if cached is not None:
                    return cached
            built = compile_plan(plan.partition)
            if self.artifacts is not None:
                self.artifacts.store_plan(self.matrix_digest, plan.key, built)
            return built

        with obs.span("engine.compile", method=plan.method, k=plan.nparts):
            cplan = self._memo(key, build)
        if verify:
            from repro.verify import verify_plan

            verify_plan(cplan)
        return cplan

    def evaluate(
        self,
        plan: Plan | SpMVPartition,
        x: np.ndarray | None = None,
        machine: MachineModel | None = None,
    ) -> PartitionQuality:
        """Quality summary of a plan (or raw partition) under ``machine``.

        The expensive simulated run is cached per plan; summarising it
        under a different machine model reuses the same run.
        """
        machine = machine or self.machine
        if isinstance(plan, SpMVPartition):
            return summarize(plan, run_partition(plan, x), machine)
        return summarize(plan.partition, self.run(plan, x), machine)
