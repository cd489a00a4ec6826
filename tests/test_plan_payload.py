"""Compiled plans in the raw payload format.

A single-phase, a two-phase and a routed plan go through a file and
through the artifact store.  What comes back must equal what went in
(every array with its dtype and shape, the ledger, ``apply_y`` bytes on
both backends), and every plan array must be a read-only, aligned view
of the one payload it was read from.
"""

import io

import numpy as np
import pytest

from repro.engine import PartitionEngine
from repro.partition.serialize import load_plan, pack_plan, save_plan, unpack_plan
from repro.runtime import compile_plan
from repro.sweep import ArtifactCache

from tests.test_runtime import partitioned_instances  # noqa: F401

pytestmark = pytest.mark.native

# Golden instances (tests.golden_runtime.LABELS order) of each executor.
_INSTANCE = {"single": 1, "two": 3, "routed": 2}


def _payload_of(a: np.ndarray):
    """The object a view of a payload was read from."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.base


def _assert_same_plan(plan, back, payload: bytes) -> None:
    header, arrays = plan.to_state()
    back_header, back_arrays = back.to_state()
    assert back_header == header
    assert list(back_arrays) == list(arrays)
    for name, a in arrays.items():
        b = back_arrays[name]
        assert (b.dtype, b.shape) == (a.dtype, a.shape), name
        assert np.array_equal(b, a), name
    assert back.ledger.as_dict() == plan.ledger.as_dict()
    x = np.random.default_rng(plan.nrows).standard_normal(plan.ncols)
    for backend in ("numpy", "native"):
        want = plan.apply_y(x, backend=backend)
        assert back.apply_y(x, backend=backend).tobytes() == want.tobytes(), backend

    # Every plan array is a read-only, aligned view of one payload
    # holding exactly the bytes pack_plan wrote; the ledger's arrays
    # are rebuilt from its book, so they are not views.
    sources = set()
    for name, b in back_arrays.items():
        if name.startswith("ledger"):
            continue
        assert not b.flags.writeable and b.flags.aligned, name
        source = _payload_of(b)
        assert isinstance(source, bytes) and source == payload, name
        assert b.size == 0 or np.shares_memory(b, np.frombuffer(source, np.uint8))
        sources.add(id(source))
    assert len(sources) == 1


@pytest.mark.parametrize("mode", sorted(_INSTANCE))
def test_plan_file_roundtrip_is_exact_and_reads_in_place(
    mode, partitioned_instances, tmp_path  # noqa: F811
):
    plan = compile_plan(partitioned_instances[_INSTANCE[mode]][0])
    assert plan.executor == mode
    path = tmp_path / f"{mode}.plan"
    save_plan(plan, path)
    payload = pack_plan(plan)
    assert path.read_bytes() == payload
    _assert_same_plan(plan, load_plan(path), payload)
    _assert_same_plan(plan, load_plan(io.BytesIO(payload)), payload)
    _assert_same_plan(plan, unpack_plan(payload), payload)


@pytest.mark.parametrize("mode", sorted(_INSTANCE))
def test_plan_store_roundtrip_is_exact_and_reads_in_place(
    mode, partitioned_instances, tmp_path  # noqa: F811
):
    plan = compile_plan(partitioned_instances[_INSTANCE[mode]][0])
    ArtifactCache(tmp_path).store_plan("digest", ("key", mode), plan)
    cache = ArtifactCache(tmp_path)
    back = cache.fetch_plan("digest", ("key", mode))
    assert cache.stats["hits"] == 1
    _assert_same_plan(plan, back, pack_plan(plan))


def test_payload_arrays_start_eight_byte_aligned(partitioned_instances):  # noqa: F811
    """The header is padded so every array starts at a multiple of 8
    bytes into the payload."""
    plan = compile_plan(partitioned_instances[2][0])
    payload = pack_plan(plan)
    start = 4 + int.from_bytes(payload[:4], "little")
    assert start % 8 == 0 and len(payload) % 8 == 0
    base = np.frombuffer(payload, np.uint8).ctypes.data
    for name, a in unpack_plan(payload).to_state()[1].items():
        if a.size and not name.startswith("ledger"):
            offset = a.ctypes.data - base
            assert offset >= start and offset % 8 == 0, name


def test_warm_engine_reads_the_stored_plan_in_place(partitioned_instances, tmp_path):  # noqa: F811
    """A warm engine's compiled plan comes from the store as views."""
    m = partitioned_instances[0][0].matrix
    cold = PartitionEngine(m, seed=3, artifacts=ArtifactCache(tmp_path))
    built = cold.compiled_plan(cold.plan("s2d-heuristic", 3))
    warm = PartitionEngine(m, seed=3, artifacts=ArtifactCache(tmp_path))
    back = warm.compiled_plan(warm.plan("s2d-heuristic", 3))
    _assert_same_plan(built, back, pack_plan(built))
