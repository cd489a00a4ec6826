"""Message ledger: every send of the simulated SpMV, by phase.

The ledger is the package's one count of the quantities the paper's
tables report (total volume, per-processor message counts): each
execution model's derivation books every send here, and every table,
``evaluate``, the compiled runtime and the CLI read it.  The test
suite checks it against the analytic formulas (eq. 3, the two-phase
expand/fold and the routed combine) kept in ``tests/comm_oracle.py``.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import SimulationError

__all__ = ["Ledger"]


class Ledger:
    """Per-phase record of ``(src, dst) → words`` sends."""

    def __init__(self, nparts: int):
        if nparts <= 0:
            raise SimulationError("nparts must be positive")
        self.nparts = int(nparts)
        self._phases: dict[str, dict[tuple[int, int], int]] = {}
        self._order: list[str] = []
        # Per-phase (sent_v, recv_v, sent_m, recv_m) aggregates, computed
        # lazily and invalidated whenever the phase's book changes.
        self._agg: dict[str, tuple] = {}

    # ------------------------------------------------------------------

    def record(self, phase: str, src: int, dst: int, words: int) -> None:
        """Record one message.  Zero-word sends are rejected: the
        executors must not emit empty messages (the paper's message
        counts assume none)."""
        if words <= 0:
            raise SimulationError(f"empty message {src}->{dst} in phase {phase!r}")
        if src == dst:
            raise SimulationError(f"self-message at P{src} in phase {phase!r}")
        if not (0 <= src < self.nparts and 0 <= dst < self.nparts):
            raise SimulationError(f"message {src}->{dst} outside 0..{self.nparts - 1}")
        if phase not in self._phases:
            self._phases[phase] = {}
            self._order.append(phase)
        book = self._phases[phase]
        if (src, dst) in book:
            raise SimulationError(
                f"duplicate message {src}->{dst} in phase {phase!r}; "
                "executors must aggregate into one packet per pair per phase"
            )
        book[(src, dst)] = int(words)
        self._agg.pop(phase, None)

    def record_pairs(
        self,
        phase: str,
        src: np.ndarray,
        dst: np.ndarray,
        words: np.ndarray,
    ) -> None:
        """Bulk-record one message per ``(src[i], dst[i])`` pair.

        The vectorized counterpart of :meth:`record`: all validation
        (positive words, no self-messages, range, no duplicate pairs —
        within the batch or against messages already booked) runs as
        array operations, and the resulting book is identical to
        recording each pair individually.  An empty batch is a no-op
        and does not open the phase.
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        words = np.asarray(words, dtype=np.int64).ravel()
        if not (src.size == dst.size == words.size):
            raise SimulationError("record_pairs arrays must have equal sizes")
        if src.size == 0:
            return
        bad = np.flatnonzero(words <= 0)
        if bad.size:
            t = bad[0]
            raise SimulationError(
                f"empty message {src[t]}->{dst[t]} in phase {phase!r}"
            )
        bad = np.flatnonzero(src == dst)
        if bad.size:
            raise SimulationError(f"self-message at P{src[bad[0]]} in phase {phase!r}")
        if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= self.nparts:
            sel = (src < 0) | (src >= self.nparts) | (dst < 0) | (dst >= self.nparts)
            t = np.flatnonzero(sel)[0]
            raise SimulationError(
                f"message {src[t]}->{dst[t]} outside 0..{self.nparts - 1}"
            )
        keys = src * np.int64(self.nparts) + dst
        sorted_keys = np.sort(keys)
        if sorted_keys.size > 1 and np.any(np.diff(sorted_keys) == 0):
            dup = sorted_keys[np.flatnonzero(np.diff(sorted_keys) == 0)[0]]
            raise SimulationError(
                f"duplicate message {dup // self.nparts}->{dup % self.nparts} "
                f"in phase {phase!r}; executors must aggregate into one packet "
                "per pair per phase"
            )
        book = self._phases.get(phase)
        if book is None:
            self._phases[phase] = book = {}
            self._order.append(phase)
        elif book:
            existing = np.fromiter(
                (s * self.nparts + d for s, d in book), dtype=np.int64, count=len(book)
            )
            clash = np.flatnonzero(np.isin(keys, existing))
            if clash.size:
                t = clash[0]
                raise SimulationError(
                    f"duplicate message {src[t]}->{dst[t]} in phase {phase!r}; "
                    "executors must aggregate into one packet per pair per phase"
                )
        book.update(zip(zip(src.tolist(), dst.tolist()), words.tolist()))
        self._agg.pop(phase, None)

    # ------------------------------------------------------------------

    @property
    def phase_names(self) -> list[str]:
        return list(self._order)

    def phase_pairs(self, phase: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One phase's book as ``(src, dst, words)`` arrays, sorted by pair.

        The round-trip partner of :meth:`record_pairs`: replaying the
        returned arrays into a fresh ledger rebuilds the phase exactly.
        An unknown phase yields empty arrays.
        """
        book = self._phases.get(phase, {})
        if not book:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        n = len(book)
        pairs = np.fromiter(itertools.chain.from_iterable(book), np.int64, 2 * n).reshape(n, 2)
        words = np.fromiter(book.values(), np.int64, n)
        # Booked pairs are unique and in range, so their keys are unique
        # and any sort orders them by (src, dst).
        order = np.argsort(pairs[:, 0] * self.nparts + pairs[:, 1])
        return pairs[order, 0], pairs[order, 1], words[order]

    def _arrays(self, phase: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        cached = self._agg.get(phase)
        if cached is not None:
            return cached
        sent_v = np.zeros(self.nparts, dtype=np.int64)
        recv_v = np.zeros(self.nparts, dtype=np.int64)
        sent_m = np.zeros(self.nparts, dtype=np.int64)
        recv_m = np.zeros(self.nparts, dtype=np.int64)
        book = self._phases.get(phase, {})
        if book:
            pairs = np.array(list(book.keys()), dtype=np.int64)
            w = np.fromiter(book.values(), dtype=np.int64, count=len(book))
            src, dst = pairs[:, 0], pairs[:, 1]
            np.add.at(sent_v, src, w)
            np.add.at(recv_v, dst, w)
            np.add.at(sent_m, src, 1)
            np.add.at(recv_m, dst, 1)
        arrays = (sent_v, recv_v, sent_m, recv_m)
        self._agg[phase] = arrays
        return arrays

    def as_dict(self) -> dict[str, dict[str, int]]:
        """JSON-friendly snapshot: ``{phase: {"src->dst": words}}``.

        Pairs are listed in sorted order, so two ledgers with the same
        messages snapshot identically regardless of recording order —
        the golden tests and the benchmark compare executors with this.
        """
        return {
            phase: {
                f"{s}->{d}": w for (s, d), w in sorted(self._phases[phase].items())
            }
            for phase in self._order
        }

    def sent_volume(self, phase: str | None = None) -> np.ndarray:
        """Words sent per processor (one phase, or all phases summed)."""
        if phase is not None:
            return self._arrays(phase)[0].copy()
        total = np.zeros(self.nparts, dtype=np.int64)
        for name in self._order:
            total += self._arrays(name)[0]
        return total

    def recv_volume(self, phase: str | None = None) -> np.ndarray:
        if phase is not None:
            return self._arrays(phase)[1].copy()
        total = np.zeros(self.nparts, dtype=np.int64)
        for name in self._order:
            total += self._arrays(name)[1]
        return total

    def sent_msgs(self, phase: str | None = None) -> np.ndarray:
        if phase is not None:
            return self._arrays(phase)[2].copy()
        total = np.zeros(self.nparts, dtype=np.int64)
        for name in self._order:
            total += self._arrays(name)[2]
        return total

    def recv_msgs(self, phase: str | None = None) -> np.ndarray:
        if phase is not None:
            return self._arrays(phase)[3].copy()
        total = np.zeros(self.nparts, dtype=np.int64)
        for name in self._order:
            total += self._arrays(name)[3]
        return total

    def total_volume(self) -> int:
        """All words sent over all phases."""
        return int(self.sent_volume().sum())

    def total_msgs(self) -> int:
        return int(self.sent_msgs().sum())

    def pair_volume(self, phase: str, src: int, dst: int) -> int:
        """Words of one specific message (0 if absent)."""
        return int(self._phases.get(phase, {}).get((src, dst), 0))
