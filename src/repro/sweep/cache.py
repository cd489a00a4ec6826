"""Content-addressed artifact cache for sweep experiments: one SQLite
file per cache root.

Every artifact is addressed by the SHA-256 of a canonical rendering of
its full provenance key; nothing is ever looked up by name.  The key
anatomy (see DESIGN.md "Sweep orchestrator"):

- **partitions** — ``("partition", serialize format version,
  matrix digest, engine plan key)`` where the plan key already carries
  the method name, K, the full partitioner config (epsilon, seed,
  coarsening/FM knobs), any method opts (vector-partition digests,
  mesh shapes) and the engine's epsilon default;
- **compiled plans** — same, tagged ``"comm-plan"``;
- **cell records** — ``("record", record schema version, serialize
  format version, matrix digest, plan key, machine model)``.

Changing *any* component — the matrix content, a config field, the
seed, or a format version bump — therefore changes the address and
forces a rebuild; stale entries are simply never referenced again.

**Storage.**  A root holds one database, ``artifacts.sqlite``, with
two tables: ``artifacts(key, payload)``, the hex address and the
payload blob, and ``events(seq, event)``, the lifecycle rows of a
:class:`~repro.sweep.campaign.Campaign` (one JSON object each, in
commit order).  It runs in WAL mode with ``synchronous=NORMAL``; every
store and every event is one autocommitted ``INSERT`` and every fetch
one ``SELECT``, so no transaction ever stays open between calls and a
committed row survives a killed process.  Payloads:

- partitions keep only their assignment
  (:func:`repro.partition.serialize.pack_assignment`); a fetch rebuilds
  the partition around the caller's canonical matrix, which the address
  already pins by digest;
- compiled plans keep the :func:`~repro.partition.serialize.pack_plan`
  payload, in the same raw framing; a fetch reads the plan's arrays as
  read-only views of the blob and passes
  :func:`~repro.verify.check_plan` again;
- cell records are exact pickles of
  :class:`~repro.simulate.report.PartitionQuality`, so warm records are
  bit-identical to cold ones.

**Connections.**  Each process opens at most one connection per
database file and reuses it across :class:`ArtifactCache` instances;
the connection table is keyed by pid, so a forked child never uses or
closes a connection its parent opened (forked workers exit through
``os._exit``).  A connection whose file was deleted or replaced is
closed and reopened on the next call, and opening one closes every
other connection of the process whose file is gone.  The constructor
creates a missing database in the constructing process and closes it
again, so a sweep creates it once before it forks and its workers
inherit no SQLite state for it; processes that race on a fresh file
wait for each other under the busy timeout.  :func:`read_events`
reads through a short-lived read-only connection of its own, so a
status query creates no database and repairs none.

**Corruption** is a miss, never an error: a payload that does not
decode is deleted, and a file that is not a database is removed with
its ``-wal`` / ``-shm`` files and recreated, unless the path already
names another file (a database another process recreated).  Both
count as ``corrupt`` and emit an ``artifact.corrupt`` event naming the
key.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import sqlite3
import time

from repro import obs
from repro.errors import UsageError
from repro.partition import serialize
from repro.partition.serialize import (
    pack_assignment,
    pack_plan,
    unpack_assignment,
    unpack_plan,
)

__all__ = ["ArtifactCache", "RECORD_VERSION", "cache_key", "read_events"]

#: Schema version of pickled cell records; bump when the record payload
#: (PartitionQuality / SpMVRun / Ledger) changes incompatibly.
RECORD_VERSION = 1

#: The database file inside a cache root.
DB_NAME = "artifacts.sqlite"

_BUSY_TIMEOUT_S = 60.0
_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS artifacts"
    " (key TEXT PRIMARY KEY, payload BLOB NOT NULL)",
    "CREATE TABLE IF NOT EXISTS events"
    " (seq INTEGER PRIMARY KEY, event TEXT NOT NULL)",
)
_SELECT = "SELECT payload FROM artifacts WHERE key = ?"
_UPSERT = "INSERT OR REPLACE INTO artifacts (key, payload) VALUES (?, ?)"
_DELETE = "DELETE FROM artifacts WHERE key = ?"
_APPEND_EVENT = "INSERT INTO events (event) VALUES (?)"
_SELECT_EVENTS = "SELECT event FROM events ORDER BY seq"

# (pid, database path) -> (connection, (st_dev, st_ino) of the file it
# opened).  Entries of other pids were inherited through fork: never
# used, never closed.
_CONNECTIONS: dict[tuple[int, str], tuple[sqlite3.Connection, tuple[int, int]]] = {}


def _canon(obj) -> str:
    """Deterministic text rendering of a key component.

    Handles exactly the types engine plan keys are made of; unknown
    types are rejected so un-keyable state can never silently alias.
    """
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_canon(o) for o in obj) + ")"
    if isinstance(obj, bytes):
        return obj.hex()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return repr(obj)
    raise TypeError(f"un-keyable cache key component: {obj!r}")


def cache_key(*parts) -> str:
    """SHA-256 hex address of a canonical key tuple."""
    return hashlib.sha256(_canon(parts).encode()).hexdigest()


def _file_id(path: str) -> tuple[int, int] | None:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_dev, st.st_ino


def _is_corrupt(exc: BaseException) -> bool:
    """True for the base class, which "not a database" and "malformed"
    raise; its subclasses (locked, read-only, disk full, misuse) are not
    corruption."""
    return type(exc) is sqlite3.DatabaseError


def _prepare(conn: sqlite3.Connection) -> None:
    """Switch ``conn``'s database to WAL and create its tables if
    needed.  Switching a fresh file to WAL needs an exclusive lock that
    the busy handler does not wait for, so a process racing others on
    a fresh file retries that step itself."""
    conn.execute("PRAGMA synchronous=NORMAL")
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    while conn.execute("PRAGMA journal_mode").fetchone()[0] != "wal":
        try:
            conn.execute("PRAGMA journal_mode=WAL").fetchall()
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                raise
            time.sleep(0.001)
    for table in _SCHEMA:
        conn.execute(table)


def _close_stale(pid: int) -> None:
    """Close ``pid``'s connections whose files were deleted or replaced
    (a sweep over a fresh cache directory per run would otherwise keep
    one open per directory for the life of the process)."""
    for slot, (conn, ident) in list(_CONNECTIONS.items()):
        if slot[0] == pid and _file_id(slot[1]) != ident:
            del _CONNECTIONS[slot]
            conn.close()


def read_events(root) -> list[dict]:
    """The lifecycle rows under cache root ``root`` in commit order,
    read through a read-only connection that creates and repairs
    nothing: a missing database, one written before the events table
    existed and a file that is not a database all read as no rows."""
    path = pathlib.Path(root).expanduser().absolute() / DB_NAME
    if not path.is_file():
        return []
    conn = sqlite3.connect(
        f"{path.as_uri()}?mode=ro", uri=True, timeout=_BUSY_TIMEOUT_S
    )
    try:
        rows = conn.execute(_SELECT_EVENTS).fetchall()
    except sqlite3.DatabaseError as exc:
        # Not a database (the base class), or a store written before
        # the events table existed; anything else is a real error.
        if not (_is_corrupt(exc) or "no such table" in str(exc)):
            raise
        return []
    finally:
        conn.close()
    return [json.loads(text) for (text,) in rows]


class ArtifactCache:
    """A persistent store under one root directory.

    Satisfies the duck-type :class:`repro.engine.PartitionEngine`
    expects from its ``artifacts`` parameter (``fetch_partition`` /
    ``store_partition`` / ``fetch_plan`` / ``store_plan``), plus
    record-level ``fetch_record_hex`` / ``store_record_hex`` at a
    :meth:`record_key` address, used by the sweep orchestrator.  ``stats`` counts hits / misses / stores / corrupt
    evictions per payload kind.  A root that is not a directory raises
    :class:`~repro.errors.UsageError`.
    """

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root).expanduser()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise UsageError(
                f"artifact cache root {str(self.root)!r} is not a directory"
            ) from exc
        self.path = str(self.root / DB_NAME)
        self.stats = {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0}
        obs.register_cache(self)
        #: True when this constructor created the database: a store
        #: that did not exist holds no record, so nothing need look.
        self.created = _file_id(self.path) is None
        if self.created:
            # Create the database once, here: sweeps and campaigns build
            # their cache before they fork workers.  Close it again, so
            # the workers inherit no SQLite state for this file.
            self._query("SELECT 1", (), key=None)
            self._disconnect()

    # ------------------------------------------------------------------

    def _disconnect(self) -> tuple[int, int] | None:
        """Close this process's connection; returns the identity of the
        file it opened (None when there was none)."""
        entry = _CONNECTIONS.pop((os.getpid(), self.path), None)
        if entry is None:
            return None
        entry[0].close()
        return entry[1]

    def _connection(self) -> sqlite3.Connection:
        """This process's connection to the database, (re)opened when
        there is none or its file was deleted or replaced."""
        slot = (os.getpid(), self.path)
        entry = _CONNECTIONS.get(slot)
        if entry is not None and entry[1] == _file_id(self.path):
            return entry[0]
        _close_stale(slot[0])
        self.root.mkdir(parents=True, exist_ok=True)
        # Every thread of the process shares the connection, hence
        # check_same_thread=False.  It is registered with the identity
        # of the file it opened before anything runs on it, so that a
        # corrupt file's recovery knows which file it may remove.
        conn = sqlite3.connect(
            self.path, timeout=_BUSY_TIMEOUT_S, isolation_level=None,
            check_same_thread=False,
        )
        _CONNECTIONS[slot] = (conn, _file_id(self.path))
        try:
            _prepare(conn)
        except BaseException as exc:
            if not _is_corrupt(exc):
                self._disconnect()
            raise
        return conn

    def _query(self, sql: str, params: tuple, key: str | None) -> list:
        """Run one autocommitted statement to completion.  A file that
        is not a database is evicted, recreated and the statement run
        again on the fresh one.  The eviction removes the file only
        while it is still the one this connection opened: another
        process may already have recreated the database there and
        committed to it."""
        try:
            return self._connection().execute(sql, params).fetchall()
        except sqlite3.DatabaseError as exc:
            if not _is_corrupt(exc):
                raise
            self._corrupt(key)
            opened = self._disconnect()
            for suffix in ("-wal", "-shm", ""):
                if opened is None or _file_id(self.path) != opened:
                    break
                try:
                    os.unlink(self.path + suffix)
                except FileNotFoundError:
                    pass
            return self._connection().execute(sql, params).fetchall()

    def _corrupt(self, key: str | None) -> None:
        self.stats["corrupt"] += 1
        obs.add("artifact.corrupt")
        obs.event("artifact.corrupt", key=key, path=self.path)

    def _fetch(self, key: str, decode):
        rows = self._query(_SELECT, (key,), key)
        if rows:
            try:
                value = decode(rows[0][0])
            except Exception:
                # Torn payload, version skew inside it, unpicklable
                # garbage … evict and rebuild.
                self._corrupt(key)
                self._query(_DELETE, (key,), key)
            else:
                self.stats["hits"] += 1
                obs.add("artifact.hits")
                return value
        self.stats["misses"] += 1
        obs.add("artifact.misses")
        return None

    def _store(self, key: str, payload: bytes) -> None:
        self._query(_UPSERT, (key, payload), key)
        self.stats["stores"] += 1
        obs.add("artifact.stores")

    # ------------------------------------------------------------------
    # Partitions and compiled plans
    # ------------------------------------------------------------------

    @staticmethod
    def partition_key(matrix_digest: str, plan_key: tuple) -> str:
        return cache_key(
            "partition", serialize.FORMAT_VERSION, matrix_digest, plan_key
        )

    @staticmethod
    def plan_key(matrix_digest: str, plan_key: tuple) -> str:
        return cache_key(
            "comm-plan", serialize.FORMAT_VERSION, matrix_digest, plan_key
        )

    def fetch_partition(self, matrix_digest: str, plan_key: tuple, matrix):
        """The cached partition, rebuilt around ``matrix`` — the
        canonical matrix whose digest is ``matrix_digest``."""
        return self._fetch(
            self.partition_key(matrix_digest, plan_key),
            lambda blob: unpack_assignment(blob, matrix),
        )

    def store_partition(self, matrix_digest: str, plan_key: tuple, p) -> None:
        self._store(self.partition_key(matrix_digest, plan_key), pack_assignment(p))

    def fetch_plan(self, matrix_digest: str, plan_key: tuple):
        return self._fetch(
            self.plan_key(matrix_digest, plan_key),
            unpack_plan,
        )

    def store_plan(self, matrix_digest: str, plan_key: tuple, plan) -> None:
        self._store(self.plan_key(matrix_digest, plan_key), pack_plan(plan))

    # ------------------------------------------------------------------
    # Evaluated cell records
    # ------------------------------------------------------------------

    @staticmethod
    def record_key(matrix_digest: str, plan_key: tuple, machine_key: tuple) -> str:
        return cache_key(
            "record",
            RECORD_VERSION,
            serialize.FORMAT_VERSION,
            matrix_digest,
            plan_key,
            machine_key,
        )

    def fetch_record_hex(self, key_hex: str):
        """Fetch a cell record by its precomputed hex address
        (:meth:`record_key`): the orchestrator addresses each cell
        once.  A payload that does not decode is evicted and read as a
        miss."""
        return self._fetch(key_hex, pickle.loads)

    def store_record_hex(self, key_hex: str, record) -> None:
        """Store a cell record under its precomputed hex address."""
        self._store(key_hex, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))

    # ------------------------------------------------------------------
    # Campaign lifecycle rows
    # ------------------------------------------------------------------

    def append_event(self, event: dict) -> None:
        """Commit one lifecycle row (read back by :func:`read_events`)."""
        text = json.dumps(event, sort_keys=True, separators=(",", ":"))
        self._query(_APPEND_EVENT, (text,), None)
