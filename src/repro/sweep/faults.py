"""Deterministic fault injection for campaign robustness tests.

A :class:`FaultPlan` is a picklable, fully deterministic script of
failures keyed by cell uid and attempt number.  The campaign threads it
into every worker; at each cell boundary the worker asks the plan
whether a fault fires *for this cell on this attempt* and, if so,
executes it.  Because addressing is (uid, attempt) — never wall-clock
or randomness at fire time — a faulted campaign is exactly
reproducible, which is what lets the tests assert that a resumed
campaign's records are bit-identical to an unfaulted serial run.

Fault taxonomy (see DESIGN.md "Campaign runner"):

- ``kill``  — the worker SIGKILLs itself *after* reporting ``started``
  but before computing the cell: the crash the lifecycle rows exist
  for.  Transient: the campaign retries the cell on a fresh worker.
- ``raise`` — the cell raises :class:`FaultInjected`.  With
  ``attempts=(0,)`` it models a transient error (retry succeeds); with
  ``attempts=None`` (every attempt) it models a deterministic bug —
  the retry policy sees the same exception twice and quarantines the
  cell.
- ``stall`` — the cell sleeps past the campaign watchdog: the worker
  is reaped, the cell marked ``timed_out`` and retried.

Store-level faults don't travel through workers: the tests damage
``artifacts.sqlite`` and its write-ahead log between runs (delete a
suffix of lifecycle rows, overwrite a record payload, overwrite the
file with garbage, tear or flip the log's last frames) — the on-disk
half of the ``kill -9`` story.

This module is the **only** place in ``src/`` allowed to send
``SIGKILL`` / call ``os.kill`` (lint rule ``REP009``): production code
must reap children via ``Process.kill`` on the coordinator side, never
by signalling arbitrary pids.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from repro.errors import ConfigError, ReproError

__all__ = ["FaultInjected", "FaultPlan", "FaultSpec"]


class FaultInjected(ReproError):
    """The exception an injected ``raise`` fault throws inside a cell."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault.

    ``cell`` is the campaign cell uid the fault binds to;
    ``attempts`` the attempt numbers it fires on (``None`` = every
    attempt — the deterministic-failure shape); ``seconds`` the stall
    duration for ``kind="stall"``.
    """

    kind: str  # "kill" | "raise" | "stall"
    cell: str
    attempts: tuple[int, ...] | None = (0,)
    seconds: float = 30.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in ("kill", "raise", "stall"):
            raise ConfigError(f"unknown fault kind {self.kind!r}")

    def fires(self, uid: str, attempt: int) -> bool:
        return self.cell == uid and (
            self.attempts is None or attempt in self.attempts
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic script of :class:`FaultSpec` entries.

    At most one fault fires per (cell, attempt): the first matching
    spec wins, so plans compose predictably.
    """

    specs: tuple[FaultSpec, ...] = ()

    def for_cell(self, uid: str, attempt: int) -> FaultSpec | None:
        for spec in self.specs:
            if spec.fires(uid, attempt):
                return spec
        return None

    def fire(self, uid: str, attempt: int) -> None:
        """Execute the matching fault, if any (worker side)."""
        spec = self.for_cell(uid, attempt)
        if spec is None:
            return
        if spec.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if spec.kind == "stall":
            time.sleep(spec.seconds)
            return
        if spec.kind == "raise":
            # Deliberately attempt-independent text: a deterministic bug
            # raises the *same* exception every try, and the campaign's
            # quarantine classifier keys on (type, message) identity.
            raise FaultInjected(f"{spec.message} (cell {uid})")

    @staticmethod
    def seeded(seed: int, uids, *, kinds=("kill", "raise", "stall"),
               nfaults: int = 1, seconds: float = 30.0) -> "FaultPlan":
        """A reproducible random plan: ``nfaults`` first-attempt faults
        over ``uids``, drawn by a seeded stdlib generator (no numpy
        state touched — campaigns must stay bit-identical under it)."""
        import random

        rng = random.Random(seed)
        uids = list(uids)
        if not uids:
            raise ConfigError("seeded fault plan needs at least one cell uid")
        picks = rng.sample(uids, k=min(nfaults, len(uids)))
        specs = tuple(
            FaultSpec(kind=rng.choice(list(kinds)), cell=uid, seconds=seconds)
            for uid in picks
        )
        return FaultPlan(specs=specs)

