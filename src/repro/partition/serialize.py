"""Save / load compiled communication plans and partition assignments.

Partitioning dominates experiment runtime (the multilevel partitioner,
native C kernels included, is the costliest stage of a table), so
cached partitions are worth real money; compiling a partition into a
:class:`~repro.runtime.CommPlan` costs another executor run, so
long-lived iterative workloads cache the compiled plan too.

A plan is saved as a single ``.npz`` holding its arrays and a small
JSON header carrying the format version and a payload tag
(``"comm-plan"``) — loading a file of another payload or another
version fails with a clear :class:`~repro.errors.SerializationError`.
``save_plan`` / ``load_plan`` also take a binary file object, which is
how the artifact cache keeps plans as in-memory blobs.

A partition is kept as :func:`pack_assignment`'s blob: the assignment
only (``nnz_part``, ``x_part``, ``y_part``, kind, K, meta), no matrix.
The artifact cache's address already pins the matrix by digest, so
:func:`unpack_assignment` rebuilds the partition around the caller's
canonical matrix, whose arrays it then shares.  ``FORMAT_VERSION`` is
part of every artifact address.

A loaded plan is **untrusted input**: its index arrays drive raw
gathers and scatters (and, on the native backend, unchecked C loops),
so :func:`load_plan` routes every plan through the static plan-IR
checker (:func:`repro.verify.check_plan`) before returning it.  A
corrupted or hand-edited file surfaces as a ``SerializationError``
listing the violated invariants instead of a downstream ``IndexError``
— or a silent out-of-bounds memory write.  Callers that have already
verified a file (or are round-tripping in-process) can opt out with
``verify=False``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.errors import SerializationError
from repro.partition.types import SpMVPartition, VectorPartition

__all__ = [
    "save_plan",
    "load_plan",
    "pack_assignment",
    "unpack_assignment",
]

FORMAT_VERSION = 2

_PLAN = "comm-plan"
_ASSIGNMENT = "assignment"

# Blob layout of pack_assignment: a 4-byte little-endian header length,
# the JSON header, then nnz_part, x_part and y_part as raw int64.
_HEADER_LEN = 4
_INT64 = np.dtype("<i8")


def json_safe_meta(meta: dict) -> dict:
    """The JSON-storable subset of a meta dict: scalars pass, int
    tuples (mesh shapes) become lists, everything else is dropped."""
    out: dict = {}
    for key, value in meta.items():
        if isinstance(value, (str, int, float, bool)):
            out[key] = value
        elif isinstance(value, tuple) and all(isinstance(v, int) for v in value):
            out[key] = list(value)
    return out


def _file(target):
    """A path as NumPy wants it, or a binary file object as is."""
    if hasattr(target, "read") or hasattr(target, "write"):
        return target
    return os.fspath(target)


def _unpack_meta(meta: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in meta.items()}


def _read_plan_header(z, path) -> dict:
    try:
        header = json.loads(bytes(z["header"].tobytes()).decode())
    except (KeyError, json.JSONDecodeError) as exc:
        raise SerializationError(f"not a repro save file: {path}") from exc
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported save format version {version!r} in {path}; "
            f"this build supports version {FORMAT_VERSION}"
        )
    payload = header.get("payload")
    if payload != _PLAN:
        raise SerializationError(f"{path} holds a {payload!r} save, not a {_PLAN!r}")
    return header


def pack_assignment(p: SpMVPartition) -> bytes:
    """``p`` without its matrix, as one blob for the artifact cache.

    Holds the assignment (``nnz_part``, ``x_part``, ``y_part``), the
    kind, K, the matrix shape and the JSON-safe meta; the arrays are
    raw, uncompressed int64.  :func:`unpack_assignment` reverses it
    around the matrix the partition was built on."""
    arrays = (p.nnz_part, p.vectors.x_part, p.vectors.y_part)
    header = json.dumps(
        {
            "version": FORMAT_VERSION,
            "payload": _ASSIGNMENT,
            "kind": p.kind,
            "nparts": p.nparts,
            "shape": list(p.matrix.shape),
            "sizes": [int(a.size) for a in arrays],
            "meta": json_safe_meta(p.meta),
        }
    ).encode()
    return b"".join(
        [
            len(header).to_bytes(_HEADER_LEN, "little"),
            header,
            *(np.ascontiguousarray(a, dtype=_INT64).tobytes() for a in arrays),
        ]
    )


def unpack_assignment(blob: bytes, matrix) -> SpMVPartition:
    """Rebuild a :func:`pack_assignment` blob around ``matrix``.

    ``matrix`` must be the canonical matrix the partition was built on
    (the cache address pins it by digest); the result's matrix shares
    its arrays, and the assignment arrays are read-only views of
    ``blob``.  A blob of another payload, another format version, a
    different matrix shape or the wrong length raises
    :class:`~repro.errors.SerializationError`."""
    try:
        hlen = int.from_bytes(blob[:_HEADER_LEN], "little")
        header = json.loads(blob[_HEADER_LEN : _HEADER_LEN + hlen].decode())
        sizes = [int(n) for n in header["sizes"]]
        ok = (
            header["payload"] == _ASSIGNMENT
            and header["version"] == FORMAT_VERSION
            and tuple(header["shape"]) == tuple(matrix.shape)
            and len(sizes) == 3
            and min(sizes) >= 0
            and len(blob) == _HEADER_LEN + hlen + _INT64.itemsize * sum(sizes)
        )
    except (ValueError, TypeError, KeyError, UnicodeDecodeError) as exc:
        raise SerializationError(f"not a partition assignment blob: {exc}") from exc
    if not ok:
        raise SerializationError(
            f"partition assignment blob does not fit a {matrix.shape} matrix "
            f"under save format version {FORMAT_VERSION}"
        )
    arrays = []
    offset = _HEADER_LEN + hlen
    for size in sizes:
        arrays.append(np.frombuffer(blob, dtype=_INT64, count=size, offset=offset))
        offset += _INT64.itemsize * size
    nnz_part, x_part, y_part = arrays
    return SpMVPartition(
        matrix=matrix,
        nnz_part=nnz_part,
        vectors=VectorPartition(x_part=x_part, y_part=y_part, nparts=header["nparts"]),
        kind=header["kind"],
        meta=_unpack_meta(header["meta"]),
    )


def save_plan(plan, path) -> None:
    """Write a compiled :class:`~repro.runtime.CommPlan` to ``path`` (.npz,
    or a binary file object).

    The compiled state — gather/scatter index arrays, the static
    per-iteration ledger and the superstep schedule — is stored as-is,
    so :func:`load_plan` rebuilds an immediately applicable plan with
    no recompilation (and no reference to the original matrix).
    """
    header, arrays = plan.to_state()
    header = {"version": FORMAT_VERSION, "payload": _PLAN, **header}
    packed = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez_compressed(_file(path), header=packed, **arrays)


def load_plan(path, *, verify: bool = True):
    """Read a compiled plan written by :func:`save_plan` (from a path
    or a binary file object).

    By default the reconstructed plan is run through the static plan-IR
    checker; any violation (out-of-bounds index arrays, inconsistent
    group plans, a tampered ledger…) raises
    :class:`~repro.errors.SerializationError` naming the failed
    invariants.  ``verify=False`` skips the check for trusted
    round-trips.
    """
    from repro.runtime.plan import CommPlan

    with np.load(_file(path)) as z:
        header = _read_plan_header(z, path)
        arrays = {name: z[name] for name in z.files if name != "header"}
    try:
        plan = CommPlan.from_state(header, arrays)
    except SerializationError:
        raise
    except Exception as exc:
        # Structurally broken state (missing arrays, bad dtypes) dies
        # inside from_state before the checker can even run.
        raise SerializationError(
            f"{path} does not decode to a compiled plan: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if verify:
        from repro.verify import check_plan

        report = check_plan(plan)
        if not report.ok:
            raise SerializationError(
                f"{path} failed plan verification (pass verify=False only "
                f"for trusted files):\n{report.summary()}"
            )
    return plan
