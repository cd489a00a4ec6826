"""Append-only, fsync'd, checksummed JSONL campaign journal.

The journal is the crash-safety backbone of :mod:`repro.sweep.campaign`:
every cell lifecycle transition (``started`` / ``done`` / ``failed`` /
``quarantined``) is one line, appended and fsync'd before the campaign
acts on it, so a ``kill -9`` at *any byte offset*
loses at most the in-flight cells — never a completed one.

Line format::

    <sha256(json)[:12]> <canonical json>\n

The checksum covers the canonical (sorted-keys, compact) JSON text, so
replay distinguishes three tail states:

- a **clean** line — checksum matches: the event happened;
- a **torn** line — no newline, truncated JSON, or checksum mismatch on
  the *last* line: the write was interrupted mid-flight; the event is
  discarded (its effect never happened — the journal is written before
  the campaign's in-memory state advances);
- a **corrupt interior** — a bad line *followed by* more lines (bit
  rot, manual edits): everything from the first bad line on is
  discarded, exactly as if the process had died there.  Replay reports
  how many bytes/lines were dropped so the campaign can surface it.

:meth:`Journal.recover` truncates the file back to the last clean line
before appending resumes, so one damaged tail can never shadow later
writes.

Durability: each append is ``write → flush → os.fsync``.  The cost is
measured (``write_s`` / ``appended``) and exposed so the benchmark can
bound journal overhead against the serial sweep (BENCH_sweep.json's
``journal_overhead_frac`` acceptance).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ConfigError

__all__ = ["Journal", "JournalReplay", "replay_journal"]

_CHECKSUM_CHARS = 12


def _checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:_CHECKSUM_CHARS]


def _encode(event: dict) -> bytes:
    """Canonical line bytes for one event (checksum + compact JSON)."""
    payload = json.dumps(
        event, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return _checksum(payload).encode("ascii") + b" " + payload + b"\n"


def _decode(line: bytes) -> dict | None:
    """Parse one journal line; None when torn/corrupt/mismatched."""
    if not line.endswith(b"\n"):
        return None  # torn tail: the trailing newline never made it out
    body = line[:-1]
    sep = body.find(b" ")
    if sep != _CHECKSUM_CHARS:
        return None
    digest, payload = body[:sep], body[sep + 1 :]
    if digest.decode("ascii", errors="replace") != _checksum(payload):
        return None
    try:
        event = json.loads(payload)
    except ValueError:  # pragma: no cover - checksum already guards this
        return None
    return event if isinstance(event, dict) else None


@dataclass
class JournalReplay:
    """The readable prefix of a journal plus damage bookkeeping.

    ``events`` are the clean-prefix events in append order;
    ``good_bytes`` is the offset the clean prefix ends at (what
    :meth:`Journal.recover` truncates to); ``dropped_lines`` /
    ``dropped_bytes`` describe the discarded tail (0/0 for a healthy
    journal).
    """

    path: str
    events: list[dict] = field(default_factory=list)
    good_bytes: int = 0
    dropped_lines: int = 0
    dropped_bytes: int = 0

    @property
    def damaged(self) -> bool:
        return self.dropped_lines > 0 or self.dropped_bytes > 0


def replay_journal(path) -> JournalReplay:
    """Read the clean prefix of a journal file.

    Missing file → empty replay (a fresh campaign).  The first torn or
    checksum-failing line ends the clean prefix; everything after it is
    counted as dropped, never parsed.
    """
    path = pathlib.Path(path)
    replay = JournalReplay(path=str(path))
    if not path.exists():
        return replay
    raw = path.read_bytes()
    offset = 0
    while offset < len(raw):
        end = raw.find(b"\n", offset)
        line = raw[offset:] if end < 0 else raw[offset : end + 1]
        event = _decode(line)
        if event is None:
            break
        replay.events.append(event)
        offset += len(line)
    replay.good_bytes = offset
    if offset < len(raw):
        tail = raw[offset:]
        replay.dropped_bytes = len(tail)
        replay.dropped_lines = max(1, tail.count(b"\n"))
        obs.event(
            "journal.corrupt_tail",
            path=str(path),
            dropped_lines=replay.dropped_lines,
            dropped_bytes=replay.dropped_bytes,
        )
    return replay


class Journal:
    """Appender over one journal file (one writer at a time).

    Opened lazily on first :meth:`append`; ``fsync=False`` trades
    durability for speed (tests measuring pure replay logic).  The
    campaign keeps the default.
    """

    def __init__(self, path, *, fsync: bool = True) -> None:
        self.path = pathlib.Path(path)
        self.fsync = bool(fsync)
        self.appended = 0
        self.write_s = 0.0
        self._fh = None

    # ------------------------------------------------------------------

    def replay(self) -> JournalReplay:
        """Replay the on-disk events (see :func:`replay_journal`)."""
        if self._fh is not None:
            self._fh.flush()
        return replay_journal(self.path)

    def recover(self) -> JournalReplay:
        """Replay, then truncate any damaged tail off the file.

        Must run before appends on an existing journal: appending after
        a torn line would corrupt-chain every later event.  Returns the
        replay of the clean prefix.
        """
        if self._fh is not None:
            raise ConfigError("recover() must run before the journal is opened")
        replay = replay_journal(self.path)
        if replay.damaged:
            with open(self.path, "r+b") as fh:
                fh.truncate(replay.good_bytes)
                fh.flush()
                os.fsync(fh.fileno())
            obs.event(
                "journal.recovered",
                path=str(self.path),
                good_bytes=replay.good_bytes,
                dropped_lines=replay.dropped_lines,
            )
        return replay

    # ------------------------------------------------------------------

    def append(self, event: dict) -> None:
        """Durably append one event (write + flush + fsync)."""
        t0 = obs.now()
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
        self._fh.write(_encode(event))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.appended += 1
        self.write_s += obs.now() - t0

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
