"""Exception types for the :mod:`repro` library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class PartitionError(ReproError):
    """Raised when a partition is structurally invalid.

    Examples: a part id out of range, a nonzero assigned to a processor
    that owns neither its row's y-entry nor its column's x-entry (s2D
    admissibility violation), or mismatched partition sizes.
    """


class ModelError(ReproError):
    """Raised when a hypergraph model cannot be built for a matrix."""


class SimulationError(ReproError):
    """Raised when the distributed SpMV simulation detects an inconsistency.

    The simulator validates that every received message was actually sent,
    that phases are executed in order, and that the assembled output vector
    equals the serial reference ``A @ x``.
    """


class ConfigError(ReproError):
    """Raised for invalid user-supplied configuration values."""


class NativeBuildError(ReproError):
    """Raised when the native C kernel backend cannot be built or loaded.

    Carries the reason (no compiler on PATH, compile failure, corrupt
    cached library).  The build layer records it, and every caller that
    needs the kernels — partitioning, the block DM, the s2D flip loop,
    a ``backend="native"`` apply — surfaces it as a :class:`ConfigError`
    ("native backend unavailable: <reason>").
    """


class VerificationError(ReproError):
    """Raised when the static verification layer rejects an artifact.

    Carries a :class:`repro.verify.VerifyReport` summary: the plan-IR
    checker found an out-of-bounds index array, mismatched pipeline
    stage widths, an unsorted main section, or a ledger that breaks
    the model's phase schedule.  Unlike :class:`SimulationError` — which fires when a
    *run* goes wrong — this fires before anything executes.
    """


class SerializationError(ReproError):
    """Raised when a save file is malformed, mistyped, or fails the
    plan-IR verification that :func:`repro.partition.serialize.load_plan`
    runs on untrusted input.

    Loading a corrupted compiled plan without this guard surfaces much
    later as a downstream ``IndexError`` — or, under the native kernels,
    a silent out-of-bounds memory write.
    """


class CellExecutionError(ReproError):
    """A sweep/campaign grid cell failed, with its identity attached.

    A raw exception from a worker process gives no hint of *which*
    ``(matrix, scheme, K, seed)`` cell blew up or which task ran it;
    this wrapper carries the cell coordinates and the originating
    worker traceback text so a failure deep in an 8-matrix × 3-scheme
    × 3-K grid names its cell.  Pickles cleanly across process
    boundaries (the structured fields survive a pickle round-trip).
    """

    def __init__(self, message: str, cell: dict | None = None,
                 task_index: int | None = None, worker_tb: str = ""):
        super().__init__(message)
        self.cell = dict(cell) if cell else {}
        self.task_index = task_index
        self.worker_tb = worker_tb

    def __reduce__(self):
        return (
            type(self),
            (self.args[0], self.cell, self.task_index, self.worker_tb),
        )


class CampaignError(ReproError):
    """Raised when a campaign cannot maintain its crash-safety contract.

    Examples: resuming a campaign whose lifecycle rows belong to a
    different grid or name an unknown cell, or fault kinds that need
    worker processes on a platform without ``fork``.  Per-cell
    *failures* never raise this — they are retried or quarantined; the
    campaign degrades gracefully instead of aborting.
    """


class UsageError(ConfigError):
    """Raised for malformed command-level inputs (CLI flags, job counts).

    A :class:`ConfigError` specialization the entry points convert into
    a clean one-line message instead of a traceback — e.g. a negative
    ``--jobs`` value, which previously surfaced as a pool ``ValueError``.
    """
