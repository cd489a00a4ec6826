"""BSP-style machine cost model and the simulated-run container.

A run is a sequence of supersteps; superstep time is

    γ · max_p flops_p  +  β · max_p max(sent_p, recv_p) words
                        +  α · max_p max(#sent_p, #recv_p)

and the run time is the sum over supersteps (communication phases pay
their α/β term, computation phases their γ term; fused phases pay
both).  Speedup is measured against the serial 2·nnz-flop SpMV on the
same model — the same normalization the paper uses for its ``Sp``
columns.

Which machine prices what: every paper table, the CLI and the examples
price with ``ExperimentConfig.machine`` (α/β/γ = 20/2/1,
:mod:`repro.experiments.config`).  The class defaults below (1000/3/1:
a message about three orders of magnitude dearer than a flop, a word
about three flops) serve only bare API calls that pass no machine,
such as ``MachineModel()`` or ``evaluate(p)``.  The trends of the
tables (who wins, where latency starts to dominate) are governed by
the ratios, not their absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.simulate.messages import Ledger

__all__ = ["MachineModel", "PhaseCost", "SpMVRun"]


@dataclass(frozen=True)
class MachineModel:
    """α (per message), β (per word), γ (per flop) cost coefficients."""

    alpha: float = 1000.0
    beta: float = 3.0
    gamma: float = 1.0

    def phase_terms(
        self,
        flops: np.ndarray | None,
        ledger: Ledger | None = None,
        phase: str | None = None,
    ) -> dict[str, float]:
        """One superstep's ``compute`` (γ · max flops), ``bandwidth`` (β ·
        max words), ``latency`` (α · max msgs) and ``total`` = compute +
        (bandwidth + latency): every price in the package comes from here."""
        compute = bandwidth = latency = 0.0
        if flops is not None and len(flops):
            compute = self.gamma * float(np.max(flops))
        if ledger is not None and phase is not None:
            words = max(
                float(ledger.sent_volume(phase).max(initial=0)),
                float(ledger.recv_volume(phase).max(initial=0)),
            )
            msgs = max(
                float(ledger.sent_msgs(phase).max(initial=0)),
                float(ledger.recv_msgs(phase).max(initial=0)),
            )
            bandwidth, latency = self.beta * words, self.alpha * msgs
        return {
            "compute": compute, "bandwidth": bandwidth, "latency": latency,
            "total": compute + (bandwidth + latency),
        }

    def phase_time(
        self,
        flops: np.ndarray | None,
        ledger: Ledger | None = None,
        phase: str | None = None,
    ) -> float:
        """Cost of one superstep (the ``total`` of :meth:`phase_terms`)."""
        return self.phase_terms(flops, ledger, phase)["total"]

    def run_time(self, phases: list["PhaseCost"], ledger: Ledger) -> float:
        """Cost of a superstep schedule: its phase times summed in order."""
        return sum(self.phase_time(ph.flops, ledger, ph.comm_phase) for ph in phases)

    def serial_time(self, nnz: int) -> float:
        """Serial SpMV: one multiply + one add per nonzero."""
        return self.gamma * 2.0 * float(nnz)


@dataclass(frozen=True)
class PhaseCost:
    """One superstep of a run: optional compute plus optional comm."""

    name: str
    flops: np.ndarray | None = None
    comm_phase: str | None = None


@dataclass
class SpMVRun:
    """Everything a simulated parallel SpMV produced.

    ``y`` is the assembled output vector (already verified against the
    serial product by the executor); ``phases`` defines the superstep
    schedule the machine model prices.
    """

    y: np.ndarray
    ledger: Ledger
    phases: list[PhaseCost]
    nnz: int
    kind: str = ""
    meta: dict = field(default_factory=dict)

    def time(self, machine: MachineModel) -> float:
        """Total simulated run time."""
        return machine.run_time(self.phases, self.ledger)

    def speedup(self, machine: MachineModel) -> float:
        """Speedup vs. the serial SpMV under the same model."""
        t = self.time(machine)
        return machine.serial_time(self.nnz) / t if t > 0 else float("inf")

    def breakdown(self, machine: MachineModel) -> list[dict]:
        """Per-superstep cost decomposition (compute / words / messages).

        Useful for diagnosing *why* a partition is slow: the paper's
        latency-dominated instances show the α term eating the budget
        at large K.
        """
        return [
            {"name": ph.name, **machine.phase_terms(ph.flops, self.ledger, ph.comm_phase)}
            for ph in self.phases
        ]

    def total_flops(self) -> np.ndarray:
        """Per-processor flops summed over compute phases."""
        out = None
        for ph in self.phases:
            if ph.flops is not None:
                out = ph.flops.copy() if out is None else out + ph.flops
        if out is None:
            raise ValueError("run has no compute phases")
        return out
