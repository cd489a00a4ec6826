"""Sweep execution with a persistent artifact cache.

The experiment layer's answer to table-scale grids: a declarative
:class:`SweepGrid` (suite matrices × schemes × K × seeds, priced under
one machine model) compiles into a task DAG with per-matrix engine
affinity (:mod:`repro.sweep.grid`).  One worker body runs a task's cells
through one engine with deterministic seed derivation
(:mod:`repro.sweep.orchestrator`), and persists partitions, compiled
communication plans and evaluated cell records in a content-addressed
on-disk store (:mod:`repro.sweep.cache`) — a warm rerun of a full
table is pure cache reads, and parallel records are bit-identical to
serial ones.

One supervisor schedules every run (:mod:`repro.sweep.campaign`):
long-lived forked workers, a per-worker watchdog, retry/backoff with
quarantine.  :func:`run_sweep` is that supervisor with no durable
state; :class:`~repro.sweep.campaign.Campaign` commits every cell
lifecycle event as a row of the same SQLite store that holds the
records.  It resumes after a ``kill -9`` by replaying the rows'
failure history and answering done cells from the store by their
current address, with records bit-identical to an unfaulted serial
run — provable under the deterministic fault injection of
:mod:`repro.sweep.faults`.
"""

from repro.sweep.cache import ArtifactCache, cache_key
from repro.sweep.campaign import (
    Campaign,
    CampaignResult,
    CampaignStatus,
    FailedCell,
    RetryPolicy,
    campaign_status,
    cell_uid,
    run_sweep,
)
from repro.sweep.faults import FaultInjected, FaultPlan, FaultSpec
from repro.sweep.grid import (
    Cell,
    MatrixRef,
    MatrixTask,
    SchemeSpec,
    SweepGrid,
    derive_seed,
    suite_refs,
)
from repro.sweep.orchestrator import CellRecord, SweepResult, quality_identical

__all__ = [
    "ArtifactCache",
    "Campaign",
    "CampaignResult",
    "CampaignStatus",
    "Cell",
    "CellRecord",
    "FailedCell",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "MatrixRef",
    "MatrixTask",
    "RetryPolicy",
    "SchemeSpec",
    "SweepGrid",
    "SweepResult",
    "cache_key",
    "campaign_status",
    "cell_uid",
    "derive_seed",
    "quality_identical",
    "run_sweep",
    "suite_refs",
]
