"""s2D-b: latency-bounded s2D via virtual-mesh routing (Section VI-B).

The nonzero partition is *unchanged* from s2D (so the computational
load is identical — the paper states this explicitly under Table V);
what changes is the communication schedule.  Processors are laid on a
``Pr × Pc`` mesh and every fused ``[x̂, ŷ]`` message from ``P_k`` to
``P_ℓ`` is routed in two hops with store-and-combine forwarding:

- **row phase**: ``k = (r_k, c_k)`` sends to the intermediate
  ``t = (r_k, c_ℓ)`` — at most ``Pc − 1`` messages per processor;
- **column phase**: ``t`` forwards to ``ℓ = (r_ℓ, c_ℓ)`` — at most
  ``Pr − 1`` messages per processor.

Combining is what keeps the volume close to plain s2D (Table V shows
λ/λ1D going from 0.20 to only 0.24 at K = 4096): an ``x_j`` needed by
several processors in one mesh column crosses the row phase once, and
partial results for the same ``y_i`` arriving at an intermediate from
different senders in its mesh row are *summed* before forwarding, so
they cross the column phase once.

This module only tags the partition; the routed schedule itself, and
its word and message counts, come from the one derivation of the
model, :func:`repro.simulate.bounded.derive_s2d_bounded`.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.partition.checkerboard import mesh_shape
from repro.partition.types import SpMVPartition

__all__ = ["make_s2d_bounded"]


def make_s2d_bounded(p: SpMVPartition, shape: tuple[int, int] | None = None) -> SpMVPartition:
    """Tag an s2D partition as mesh-routed (kind ``s2D-b``).

    Nonzero and vector partitions are shared with ``p``; the mesh shape
    is recorded in ``meta`` for the routed derivation.
    """
    p.validate_s2d()
    pr, pc = shape if shape is not None else mesh_shape(p.nparts)
    if pr * pc != p.nparts:
        raise ConfigError(f"mesh {pr}x{pc} does not cover {p.nparts} processors")
    return SpMVPartition(
        matrix=p.matrix,
        nnz_part=p.nnz_part.copy(),
        vectors=p.vectors,
        kind="s2D-b",
        meta={**p.meta, "mesh": (pr, pc)},
    )
