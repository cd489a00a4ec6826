"""The artifact cache's one-file SQLite store.

Covers what the per-artifact file layout never had to: warm partitions
rebuilt around the engine's own matrix, one connection per process
shared safely across fork, concurrent creation of a fresh root, a
database file that is not a database, and roots that are misused.
"""

import io
import json
import os
import shutil
import sqlite3
import time

import numpy as np
import pytest

import repro.sweep.cache as sweep_cache
from repro.cli import main
from repro.engine import PartitionEngine
from repro.errors import SerializationError, UsageError
from repro.generators.rmat import rmat
from repro.partition.serialize import pack_assignment, unpack_assignment
from repro.sweep import ArtifactCache


@pytest.fixture()
def matrix():
    return rmat(7, edge_factor=4, seed=5)


def _fork(body) -> int:
    """Run ``body()`` in a forked child; returns its pid.  The child
    exits through ``os._exit`` with 0 on success and 1 on any error."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            body()
            code = 0
        finally:
            os._exit(code)
    return pid


def _key(plan: tuple) -> str:
    """A record address under a stand-in matrix digest and machine."""
    return ArtifactCache.record_key("d", plan, ("m",))


def _exit_code(pid: int) -> int:
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def test_warm_partition_shares_the_engine_matrix(matrix, tmp_path):
    cold = PartitionEngine(matrix, seed=3, artifacts=ArtifactCache(tmp_path))
    built = cold.plan("s2d-heuristic", 3).partition

    cache = ArtifactCache(tmp_path)
    engine = PartitionEngine(matrix, seed=3, artifacts=cache)
    p = engine.plan("s2d-heuristic", 3).partition
    assert cache.stats["hits"] >= 1 and cache.stats["stores"] == 0
    for name in ("row", "col", "data"):
        assert np.shares_memory(getattr(p.matrix, name), getattr(engine.matrix, name))
    assert np.array_equal(p.nnz_part, built.nnz_part)
    assert np.array_equal(p.vectors.x_part, built.vectors.x_part)
    assert np.array_equal(p.vectors.y_part, built.vectors.y_part)
    assert (p.kind, p.nparts) == (built.kind, built.nparts)


def test_assignment_blob_refuses_another_matrix_or_a_torn_blob(matrix):
    engine = PartitionEngine(matrix, seed=3)
    p = engine.plan("1d-rowwise", 3).partition
    blob = pack_assignment(p)
    back = unpack_assignment(blob, engine.matrix)
    assert np.array_equal(back.nnz_part, p.nnz_part)
    assert np.shares_memory(back.matrix.row, engine.matrix.row)
    other = rmat(6, edge_factor=4, seed=5)
    with pytest.raises(SerializationError):
        unpack_assignment(blob, PartitionEngine(other).matrix)
    with pytest.raises(SerializationError):
        unpack_assignment(blob[:-8], engine.matrix)
    with pytest.raises(SerializationError):
        unpack_assignment(b"\x00garbage\xff", engine.matrix)


def test_unpadded_assignment_blob_reads_into_aligned_arrays(matrix):
    """A partition blob whose header was not padded (as written before
    plans shared the format) still reads, into aligned arrays."""
    engine = PartitionEngine(matrix, seed=3)
    p = engine.plan("1d-rowwise", 3).partition
    blob = pack_assignment(p)
    hlen = int.from_bytes(blob[:4], "little")
    text = blob[4 : 4 + hlen].rstrip(b" ") + b" " * 3
    while (4 + len(text)) % 8 == 0:
        text += b" "
    old = len(text).to_bytes(4, "little") + text + blob[4 + hlen :]
    back = unpack_assignment(old, engine.matrix)
    for got, want in zip(
        (back.nnz_part, back.vectors.x_part, back.vectors.y_part),
        (p.nnz_part, p.vectors.x_part, p.vectors.y_part),
    ):
        assert got.flags.aligned and not got.flags.writeable
        assert np.array_equal(got, want)


def test_npz_plan_payload_is_evicted_and_recompiled(matrix, tmp_path):
    """A plan payload of the former ``.npz`` format at a plan address
    is corrupt: the store evicts it, and the engine recompiles and
    stores the plan again."""
    cold = PartitionEngine(matrix, seed=3, artifacts=ArtifactCache(tmp_path))
    plan = cold.plan("s2d-heuristic", 3)
    built = cold.compiled_plan(plan)
    header, arrays = built.to_state()
    header = {"version": 2, "payload": "comm-plan", **header}
    npz = io.BytesIO()
    np.savez_compressed(
        npz, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays
    )
    key = ArtifactCache.plan_key(cold.matrix_digest, plan.key)
    with sqlite3.connect(tmp_path / "artifacts.sqlite") as db:
        db.execute("UPDATE artifacts SET payload = ? WHERE key = ?", (npz.getvalue(), key))
    assert db.total_changes == 1
    db.close()

    cache = ArtifactCache(tmp_path)
    warm = PartitionEngine(matrix, seed=3, artifacts=cache)
    again = warm.compiled_plan(warm.plan("s2d-heuristic", 3))
    assert cache.stats["corrupt"] == 1 and cache.stats["stores"] == 1
    x = np.linspace(-1.0, 1.0, matrix.shape[1])
    assert np.array_equal(again.apply_y(x), built.apply_y(x))
    assert again.ledger.as_dict() == built.ledger.as_dict()

    cache = ArtifactCache(tmp_path)
    PartitionEngine(matrix, seed=3, artifacts=cache).compiled_plan(plan)
    assert cache.stats["corrupt"] == 0 and cache.stats["hits"] == 1


@pytest.mark.parametrize("held", [False, True], ids=["race", "held"])
def test_four_processes_create_one_fresh_root_at_once(tmp_path, held):
    """``held``: a fifth process holds the fresh file's write lock for
    a moment, as a peer midway through creating it does; switching to
    WAL must wait for it, not fail with "database is locked"."""
    root = tmp_path / "fresh"
    read, write = os.pipe()
    holder = None
    if held:
        root.mkdir()
        ready_r, ready_w = os.pipe()

        def hold():
            db = sqlite3.connect(root / sweep_cache.DB_NAME, isolation_level=None)
            db.execute("BEGIN IMMEDIATE")
            os.write(ready_w, b"x")
            os.close(write)
            os.read(read, 1)  # the four start now: keep the lock a moment
            time.sleep(0.3)
            db.execute("COMMIT")
            db.close()

        holder = _fork(hold)
        os.read(ready_r, 1)

    def child(i):
        def body():
            os.close(write)
            os.read(read, 1)  # start together
            cache = ArtifactCache(root)
            for j in range(i, i + 6):  # neighbours overlap by five keys
                cache.store_record_hex(_key(("plan", j)), {"j": j})
            for j in range(i, i + 6):
                assert cache.fetch_record_hex(_key(("plan", j))) == {"j": j}

        return body

    pids = [_fork(child(i)) for i in range(4)]
    os.close(read)
    os.close(write)  # releases every child at once
    assert [_exit_code(pid) for pid in pids] == [0, 0, 0, 0]
    if holder is not None:
        assert _exit_code(holder) == 0
    cache = ArtifactCache(root)
    for j in range(9):
        assert cache.fetch_record_hex(_key(("plan", j))) == {"j": j}
    assert cache.stats == {"hits": 9, "misses": 0, "stores": 0, "corrupt": 0}


def test_forked_child_uses_its_parents_cache_instance(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_record_hex(_key(("parent",)), "from the parent")
    slot = (os.getpid(), cache.path)
    conn = sweep_cache._CONNECTIONS[slot][0]

    def body():
        assert cache.fetch_record_hex(_key(("parent",))) == "from the parent"
        cache.store_record_hex(_key(("child",)), "from the child")
        # The child opened its own connection and left the parent's alone.
        assert sweep_cache._CONNECTIONS[(os.getpid(), cache.path)][0] is not conn

    assert _exit_code(_fork(body)) == 0
    assert sweep_cache._CONNECTIONS[slot][0] is conn
    assert cache.fetch_record_hex(_key(("parent",))) == "from the parent"
    assert cache.fetch_record_hex(_key(("child",))) == "from the child"
    cache.store_record_hex(_key(("after",)), "parent again")
    assert cache.fetch_record_hex(_key(("after",))) == "parent again"


def test_a_file_that_is_not_a_database_is_replaced(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_record_hex(_key(("p",)), 1)
    for suffix in ("", "-wal", "-shm"):
        with open(cache.path + suffix, "wb") as fh:
            fh.write(b"\x00garbage\xff" * 3)
    assert cache.fetch_record_hex(_key(("p",))) is None
    assert cache.stats["corrupt"] == 1
    cache.store_record_hex(_key(("p",)), 2)
    assert ArtifactCache(tmp_path).fetch_record_hex(_key(("p",))) == 2
    with sqlite3.connect(cache.path) as db:
        assert db.execute("PRAGMA journal_mode").fetchone() == ("wal",)


@pytest.mark.parametrize("where", ["open", "statement"])
def test_recovery_leaves_a_database_recreated_by_another_process(
    tmp_path, monkeypatch, where
):
    """Between this connection's failing statement and its eviction,
    another process has already replaced the corrupt file with a fresh
    database and committed a record to it: the eviction removes
    nothing, and the statement runs on that database.  The garbage is
    either there before the connection opens or written under an open
    connection."""
    cache = ArtifactCache(tmp_path / "cache")
    if where == "statement":
        cache.store_record_hex(_key(("p",)), 1)
    for suffix in ("", "-wal", "-shm"):
        if where == "statement" or not suffix:
            with open(cache.path + suffix, "wb") as fh:
                fh.write(b"\x00garbage\xff" * 3)
    other = tmp_path / "other"
    ArtifactCache(other).store_record_hex(_key(("theirs",)), "committed")
    with sqlite3.connect(other / sweep_cache.DB_NAME) as db:
        db.execute("PRAGMA wal_checkpoint(TRUNCATE)")  # all of it in one file
    corrupt = cache._corrupt

    def recreated_meanwhile(key):
        # The other process's own recovery: evict all three, recreate.
        corrupt(key)
        for suffix in ("-wal", "-shm"):
            if os.path.exists(cache.path + suffix):
                os.unlink(cache.path + suffix)
        os.replace(other / sweep_cache.DB_NAME, cache.path)

    monkeypatch.setattr(cache, "_corrupt", recreated_meanwhile)
    assert cache.fetch_record_hex(_key(("p",))) is None
    assert cache.stats["corrupt"] == 1
    assert cache.fetch_record_hex(_key(("theirs",))) == "committed"
    fresh = ArtifactCache(tmp_path / "cache")
    assert fresh.fetch_record_hex(_key(("theirs",))) == "committed"


def test_a_deleted_or_replaced_database_is_reopened(tmp_path):
    root = tmp_path / "cache"
    ArtifactCache(root).store_record_hex(_key(("p",)), 1)
    shutil.rmtree(root)  # what the benchmark does between cold runs
    cache = ArtifactCache(root)
    assert cache.fetch_record_hex(_key(("p",))) is None
    cache.store_record_hex(_key(("p",)), 2)

    other = tmp_path / "other"
    ArtifactCache(other).store_record_hex(_key(("p",)), 3)
    with sqlite3.connect(other / sweep_cache.DB_NAME) as db:
        db.execute("PRAGMA wal_checkpoint(TRUNCATE)")  # all of it in one file
    os.replace(other / sweep_cache.DB_NAME, cache.path)
    assert cache.fetch_record_hex(_key(("p",))) == 3
    assert cache.stats["corrupt"] == 0


def test_root_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "not-a-dir"
    path.write_text("x")
    with pytest.raises(UsageError, match="not-a-dir"):
        ArtifactCache(path)
    rc = main(["table", "--id", "2", "--scale", "tiny", "--cache-dir", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "not-a-dir" in err
    assert path.read_text() == "x"


def test_old_shard_layout_reads_empty_and_is_left_alone(tmp_path):
    key = _key(("p",))
    shard = tmp_path / key[:2]
    shard.mkdir()
    (shard / f"{key}.pkl").write_bytes(b"an old per-file record")
    cache = ArtifactCache(tmp_path)
    assert cache.fetch_record_hex(key) is None
    cache.store_record_hex(key, "new")
    assert cache.fetch_record_hex(key) == "new"
    assert (shard / f"{key}.pkl").read_bytes() == b"an old per-file record"
