"""One-call evaluation of a partition: the numbers the paper tabulates.

:func:`resolve_mode` picks the execution model for a partition and
:func:`derive` runs that model's single derivation;
:func:`run_partition` is the simulated SpMV built on it, and
:func:`repro.runtime.compile_plan` the compiled plan.
:func:`summarize` prices a finished run under a machine model,
producing load imbalance (LI%), total volume, average/maximum messages
per processor, and the model speedup — the exact column set of Tables
II through VII.  :func:`evaluate` composes the two; the
:class:`repro.engine.PartitionEngine` calls them separately so one
cached run can be re-priced under many machine models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ConfigError
from repro.metrics import format_li
from repro.partition.types import SpMVPartition
from repro.simulate.bounded import derive_s2d_bounded
from repro.simulate.common import Derivation
from repro.simulate.machine import MachineModel, SpMVRun
from repro.simulate.singlephase import derive_single_phase
from repro.simulate.twophase import derive_two_phase

__all__ = [
    "PartitionQuality", "derive", "evaluate", "resolve_mode", "run_partition",
    "summarize", "EXECUTORS",
]

_DERIVATIONS = {
    "single": derive_single_phase,
    "two": derive_two_phase,
    "routed": derive_s2d_bounded,
}

# Partition kind → executor choice.  The single-phase executor covers
# everything s2D-admissible (the paper's point: 1D is a special case);
# the two-phase executor covers the unconstrained 2D family.
EXECUTORS = {
    "1D": "single",
    "1D-col": "single",
    "s2D": "single",
    "s2D-mg": "single",
    "2D": "two",
    "2D-orb": "two",
    "2D-b": "two",
    "1D-b": "two",
    "s2D-b": "routed",
}


@dataclass(frozen=True)
class PartitionQuality:
    """Table-row summary of one partitioning instance."""

    kind: str
    nparts: int
    load_imbalance: float
    total_volume: int
    avg_msgs: float
    max_msgs: int
    speedup: float
    time: float
    run: SpMVRun = field(repr=False, compare=False)

    @property
    def li_percent(self) -> float:
        """LI% as printed in the paper (x* rows mean 100x%)."""
        return 100.0 * self.load_imbalance

    def format_li(self) -> str:
        """Paper-style LI rendering: '12.9%' or '1.2*' (= 120%)."""
        return format_li(self.load_imbalance)


def resolve_mode(p: SpMVPartition, executor: str | None = None) -> str:
    """The execution model for ``p``: ``executor`` when given, else the
    one :data:`EXECUTORS` assigns to ``p.kind``, else single-phase when
    ``p`` is s2D-admissible and two-phase otherwise."""
    mode = executor
    if mode is None:
        mode = EXECUTORS.get(p.kind)
    if mode is None:
        mode = "single" if p.is_s2d_admissible() else "two"
    if mode not in _DERIVATIONS:
        raise ConfigError(
            f"unknown executor {mode!r}; expected one of {sorted(_DERIVATIONS)}"
        )
    return mode


def derive(
    p: SpMVPartition, x: np.ndarray | None = None, *, executor: str | None = None
) -> Derivation:
    """Run the single derivation of ``p``'s execution model (see
    :func:`resolve_mode`), auditing the product on ``x``."""
    return _DERIVATIONS[resolve_mode(p, executor)](p, x)


def run_partition(p: SpMVPartition, x: np.ndarray | None = None) -> SpMVRun:
    """Execute the simulated SpMV with the executor matching ``p.kind``."""
    obs.add("simulate.runs")
    return derive(p, x).run()


def summarize(
    p: SpMVPartition, run: SpMVRun, machine: MachineModel | None = None
) -> PartitionQuality:
    """Price a finished run under ``machine`` and tabulate its quality."""
    machine = machine or MachineModel()
    sent = run.ledger.sent_msgs()
    return PartitionQuality(
        kind=p.kind,
        nparts=p.nparts,
        load_imbalance=p.load_imbalance(),
        total_volume=run.ledger.total_volume(),
        avg_msgs=float(sent.mean()),
        max_msgs=int(sent.max(initial=0)),
        speedup=run.speedup(machine),
        time=run.time(machine),
        run=run,
    )


def evaluate(
    p: SpMVPartition,
    x: np.ndarray | None = None,
    machine: MachineModel | None = None,
) -> PartitionQuality:
    """Run the right SpMV executor on ``p`` and summarise its quality."""
    return summarize(p, run_partition(p, x), machine)
