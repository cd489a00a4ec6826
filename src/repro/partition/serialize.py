"""Save / load compiled communication plans and partition assignments.

Partitioning dominates experiment runtime (the multilevel partitioner,
native C kernels included, is the costliest stage of a table), so
cached partitions are worth real money; compiling a partition into a
:class:`~repro.runtime.CommPlan` costs another executor run, so
long-lived iterative workloads cache the compiled plan too.

Both are kept in one payload format, written by :func:`pack_plan` and
:func:`pack_assignment`: a 4-byte little-endian header length, a JSON
header, then each array's raw bytes, uncompressed.  The header carries
the format version and a payload tag (``"comm-plan"`` or
``"assignment"``), so a payload of another kind or another version
fails with a clear :class:`~repro.errors.SerializationError`.  The
JSON is padded with spaces and every array with zero bytes to a
multiple of 8, so each array starts 8-byte aligned and a reader takes
read-only :func:`numpy.frombuffer` views of the payload instead of
decoding it: a loaded plan's index arrays go to the native apply as
they are.  :func:`save_plan` / :func:`load_plan` write and read the
same bytes through a path or a binary file object; the artifact cache
stores them as blobs.

A partition's payload is the assignment only (``nnz_part``,
``x_part``, ``y_part``, kind, K, meta), no matrix.  The artifact
cache's address already pins the matrix by digest, so
:func:`unpack_assignment` rebuilds the partition around the caller's
canonical matrix, whose arrays it then shares.  ``FORMAT_VERSION`` is
part of every artifact address.

A loaded plan is **untrusted input**: its index arrays drive raw
gathers and scatters (and, on the native backend, unchecked C loops),
so :func:`unpack_plan` routes every plan through the static plan-IR
checker (:func:`repro.verify.check_plan`) before returning it.  A
payload that does not frame (truncated, a header that is not JSON,
arrays running past its end, a ``.npz`` archive of earlier releases)
is refused before any view is made, and a corrupted or hand-edited
plan surfaces as a ``SerializationError`` listing the violated
invariants instead of a downstream ``IndexError`` — or a silent
out-of-bounds memory write.  Callers that have already verified a
payload (or are round-tripping in-process) can opt out with
``verify=False``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from repro.errors import SerializationError
from repro.partition.types import SpMVPartition, VectorPartition

__all__ = [
    "save_plan",
    "load_plan",
    "pack_plan",
    "unpack_plan",
    "pack_assignment",
    "unpack_assignment",
]

FORMAT_VERSION = 2

_PLAN = "comm-plan"
_ASSIGNMENT = "assignment"

_HEADER_LEN = 4
_ALIGN = 8
_INT64 = np.dtype("<i8")
_ZIP_MAGIC = b"PK\x03\x04"


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


def _unpack_meta(meta: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in meta.items()}


# ------------------------------------------------------------- framing


def _frame(header: dict, arrays) -> bytes:
    """One payload: ``header`` as JSON padded with spaces so the first
    array starts 8-byte aligned, then each array's little-endian bytes
    zero-padded to a multiple of 8."""
    text = json.dumps(header).encode()
    text += b" " * (-(_HEADER_LEN + len(text)) % _ALIGN)
    parts = [len(text).to_bytes(_HEADER_LEN, "little"), text]
    for a in arrays:
        raw = np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes()
        parts += [raw, bytes(-len(raw) % _ALIGN)]
    return b"".join(parts)


def _open(blob, payload: str, source) -> tuple[dict, int]:
    """The JSON header of a ``payload`` blob and the offset of its first
    array; :class:`SerializationError` for anything else."""
    if bytes(blob[: len(_ZIP_MAGIC)]) == _ZIP_MAGIC:
        raise SerializationError(
            f"not a repro save file: {source} is a .npz archive (the plan "
            "format of earlier releases); compile and save the plan again"
        )
    hlen = int.from_bytes(blob[:_HEADER_LEN], "little")
    start = _HEADER_LEN + hlen
    if len(blob) < start:
        raise SerializationError(
            f"not a repro save file: {source} is truncated ({len(blob)} bytes, "
            f"header ends at byte {start})"
        )
    try:
        header = json.loads(bytes(blob[_HEADER_LEN:start]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"not a repro save file: {source} ({exc})") from exc
    if not isinstance(header, dict):
        raise SerializationError(f"not a repro save file: {source}")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported save format version {version!r} in {source}; "
            f"this build supports version {FORMAT_VERSION}"
        )
    if header.get("payload") != payload:
        raise SerializationError(
            f"{source} holds a {header.get('payload')!r} save, not a {payload!r}"
        )
    return header, start


def _views(blob, start: int, specs, source) -> list[np.ndarray]:
    """Read-only views of the arrays ``specs`` (``(dtype, shape)``
    pairs) laid out from ``start``; the blob must end right after the
    last one.  A blob whose arrays would not be 8-byte aligned in
    memory (one written before the header was padded, or a buffer at an
    odd address) is copied once into aligned memory first."""
    layout, end = [], start
    for dtype, shape in specs:
        count = math.prod(shape)
        layout.append((dtype, shape, count, end))
        nbytes = dtype.itemsize * count
        end += nbytes + -nbytes % _ALIGN
    if len(blob) != end:
        raise SerializationError(
            f"not a repro save file: {source} holds {len(blob)} bytes, "
            f"its header describes {end}"
        )
    buf = np.frombuffer(blob, dtype=np.uint8)
    shift = 0
    if (buf.ctypes.data + start) % _ALIGN:
        shift = -start % _ALIGN
        aligned = np.empty(len(blob) // _ALIGN + 2, dtype=np.uint64).view(np.uint8)
        aligned[shift : shift + len(blob)] = buf
        aligned.flags.writeable = False
        buf = aligned
    return [
        np.frombuffer(buf, dtype=dtype, count=count, offset=shift + off).reshape(shape)
        for dtype, shape, count, off in layout
    ]


# ----------------------------------------------------------- partitions


def pack_assignment(p: SpMVPartition) -> bytes:
    """``p`` without its matrix, as one blob for the artifact cache.

    Holds the assignment (``nnz_part``, ``x_part``, ``y_part``, raw
    int64), the kind, K, the matrix shape and the JSON-safe meta.
    :func:`unpack_assignment` reverses it around the matrix the
    partition was built on."""
    arrays = [
        np.asarray(a, dtype=_INT64) for a in (p.nnz_part, p.vectors.x_part, p.vectors.y_part)
    ]
    header = {
        "version": FORMAT_VERSION,
        "payload": _ASSIGNMENT,
        "kind": p.kind,
        "nparts": p.nparts,
        "shape": list(p.matrix.shape),
        "sizes": [int(a.size) for a in arrays],
        "meta": json_safe_meta(p.meta),
    }
    return _frame(header, arrays)


def unpack_assignment(blob: bytes, matrix) -> SpMVPartition:
    """Rebuild a :func:`pack_assignment` blob around ``matrix``.

    ``matrix`` must be the canonical matrix the partition was built on
    (the cache address pins it by digest); the result's matrix shares
    its arrays, and the assignment arrays are read-only views of
    ``blob``.  A blob of another payload, another format version, a
    different matrix shape or the wrong length raises
    :class:`~repro.errors.SerializationError`."""
    source = "partition assignment blob"
    header, start = _open(blob, _ASSIGNMENT, source)
    try:
        sizes = [int(n) for n in header["sizes"]]
        ok = (
            tuple(header["shape"]) == tuple(matrix.shape)
            and len(sizes) == 3
            and min(sizes) >= 0
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise SerializationError(f"not a {source}: {exc}") from exc
    if not ok:
        raise SerializationError(
            f"{source} does not fit a {matrix.shape} matrix "
            f"under save format version {FORMAT_VERSION}"
        )
    nnz_part, x_part, y_part = _views(blob, start, [(_INT64, (n,)) for n in sizes], source)
    return SpMVPartition(
        matrix=matrix,
        nnz_part=nnz_part,
        vectors=VectorPartition(x_part=x_part, y_part=y_part, nparts=header["nparts"]),
        kind=header["kind"],
        meta=_unpack_meta(header["meta"]),
    )


# ---------------------------------------------------------------- plans


# The dtypes a plan array may have, by the name the header gives them.
_DTYPES = {
    dt.str: dt
    for dt in map(np.dtype, ("|b1", "|i1", "|u1", "<i2", "<u2", "<i4", "<u4",
                             "<i8", "<u8", "<f4", "<f8"))
}


def _array_specs(header: dict, source) -> tuple[list[str], list]:
    """Names and ``(dtype, shape)`` specs of a plan header's arrays:
    unique names, numeric little-endian dtypes, non-negative int
    shapes."""
    names, specs = [], []
    try:
        for name, dtype, shape in header["arrays"]:
            if not (
                isinstance(name, str)
                and name not in names
                and isinstance(dtype, str)
                and dtype in _DTYPES
                and all(type(n) is int and n >= 0 for n in shape)
            ):
                raise ValueError(f"bad array entry {[name, dtype, shape]!r}")
            names.append(name)
            specs.append((_DTYPES[dtype], tuple(shape)))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"not a repro save file: {source} ({exc})") from exc
    return names, specs


def pack_plan(plan) -> bytes:
    """A compiled :class:`~repro.runtime.CommPlan` as one payload.

    The compiled state — gather/scatter index arrays, the static
    per-iteration ledger and the superstep schedule — is stored as-is,
    so :func:`unpack_plan` rebuilds an immediately applicable plan with
    no recompilation (and no reference to the original matrix).
    """
    header, arrays = plan.to_state()
    header = {
        "version": FORMAT_VERSION,
        "payload": _PLAN,
        **header,
        "arrays": [[n, a.dtype.newbyteorder("<").str, list(a.shape)] for n, a in arrays.items()],
    }
    return _frame(header, arrays.values())


def unpack_plan(blob, *, verify: bool = True, source="plan payload"):
    """Rebuild a :func:`pack_plan` payload; its arrays are read-only
    views of ``blob``.

    By default the plan is run through the static plan-IR checker; any
    violation (out-of-bounds index arrays, inconsistent group plans, a
    tampered ledger…) raises :class:`~repro.errors.SerializationError`
    naming the failed invariants, as does a blob that does not frame.
    ``verify=False`` skips the check for trusted round-trips.
    """
    from repro.runtime.plan import CommPlan
    from repro.verify import check_plan

    header, start = _open(blob, _PLAN, source)
    names, specs = _array_specs(header, source)
    arrays = dict(zip(names, _views(blob, start, specs, source)))
    try:
        plan = CommPlan.from_state(header, arrays)
        report = check_plan(plan) if verify else None
    except Exception as exc:
        # Structurally broken state (missing arrays, a header field of
        # the wrong type) dies before the checker can report on it.
        raise SerializationError(
            f"{source} does not decode to a compiled plan: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if report is not None and not report.ok:
        raise SerializationError(
            f"{source} failed plan verification (pass verify=False only "
            f"for trusted files):\n{report.summary()}"
        )
    return plan


def save_plan(plan, path) -> None:
    """Write :func:`pack_plan`'s payload to ``path`` (or a binary file
    object)."""
    blob = pack_plan(plan)
    if hasattr(path, "write"):
        path.write(blob)
    else:
        with open(path, "wb") as f:
            f.write(blob)


def load_plan(path, *, verify: bool = True):
    """Read a plan written by :func:`save_plan` from ``path`` (or a
    binary file object); see :func:`unpack_plan`.  A file that cannot
    be opened raises :class:`OSError`."""
    if hasattr(path, "read"):
        blob, source = path.read(), getattr(path, "name", "plan file")
    else:
        with open(path, "rb") as f:
            blob, source = f.read(), os.fspath(path)
    return unpack_plan(blob, verify=verify, source=source)
