"""The hypergraph data structure.

Stored as two CSR-like pin lists: net → vertices (``xpins`` / ``pins``)
and vertex → nets (``xnets`` / ``nets``), mirroring the layout used by
PaToH.  Vertex weights are 2-D ``(nvertices, nconstraints)`` so the
same structure serves single-constraint models (1D, fine-grain) and the
multi-constraint checkerboard model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.kernels import stable_order

__all__ = ["Hypergraph"]


@dataclass
class Hypergraph:
    """An undirected hypergraph with weighted vertices and costed nets.

    Parameters
    ----------
    xpins:
        ``int64[nnets + 1]`` CSR offsets into ``pins``.
    pins:
        ``int64[npins]`` — vertices of net ``e`` are
        ``pins[xpins[e]:xpins[e+1]]``.
    vweights:
        ``int64[nvertices, ncon]`` vertex weights (``ncon`` balance
        constraints; 1 for all single-constraint models).
    ncosts:
        ``int64[nnets]`` net costs (communication words saved per unit
        of connectivity reduction).
    """

    xpins: np.ndarray
    pins: np.ndarray
    vweights: np.ndarray
    ncosts: np.ndarray
    xnets: np.ndarray = field(init=False, repr=False)
    nets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # C-contiguous int64 throughout: the native kernels take these
        # arrays by address.
        self.xpins = np.ascontiguousarray(self.xpins, dtype=np.int64)
        self.pins = np.ascontiguousarray(self.pins, dtype=np.int64)
        vw = np.ascontiguousarray(self.vweights, dtype=np.int64)
        if vw.ndim == 1:
            vw = vw.reshape(-1, 1)  # single-constraint weight vector
        self.vweights = vw
        self.ncosts = np.ascontiguousarray(self.ncosts, dtype=np.int64)
        self._validate()
        self._build_vertex_to_net()

    @classmethod
    def from_net_lists(
        cls,
        net_lists: list[list[int]],
        nvertices: int,
        vweights=None,
        ncosts=None,
    ) -> "Hypergraph":
        """Build from an explicit list of pin lists (mostly for tests)."""
        xpins = np.zeros(len(net_lists) + 1, dtype=np.int64)
        for e, lst in enumerate(net_lists):
            xpins[e + 1] = xpins[e] + len(lst)
        pins = np.fromiter(
            (v for lst in net_lists for v in lst), dtype=np.int64, count=int(xpins[-1])
        )
        if vweights is None:
            vweights = np.ones((nvertices, 1), dtype=np.int64)
        if ncosts is None:
            ncosts = np.ones(len(net_lists), dtype=np.int64)
        return cls(xpins=xpins, pins=pins, vweights=vweights, ncosts=ncosts)

    # ------------------------------------------------------------------

    @property
    def nvertices(self) -> int:
        return int(self.vweights.shape[0])

    @property
    def nnets(self) -> int:
        return int(self.xpins.size - 1)

    @property
    def npins(self) -> int:
        return int(self.pins.size)

    @property
    def nconstraints(self) -> int:
        return int(self.vweights.shape[1])

    def total_weight(self) -> np.ndarray:
        """Per-constraint total vertex weight, shape ``(ncon,)``."""
        return self.vweights.sum(axis=0)

    # ------------------------------------------------------------------
    # Cached incidence arrays
    # ------------------------------------------------------------------

    @property
    def net_of_pin(self) -> np.ndarray:
        """Net id of every entry of ``pins`` (cached; construction seeds
        it while building the vertex → net direction).

        The pin-major companion of ``xpins``, read by the quality
        metrics' per-net connectivities.
        """
        cached = self.__dict__.get("_net_of_pin")
        if cached is None:
            cached = np.repeat(
                np.arange(self.nnets, dtype=np.int64), np.diff(self.xpins)
            )
            self.__dict__["_net_of_pin"] = cached
        return cached

    @property
    def vert_of_pin(self) -> np.ndarray:
        """Vertex id of every entry of ``nets`` (lazily cached)."""
        cached = self.__dict__.get("_vert_of_pin")
        if cached is None:
            cached = np.repeat(
                np.arange(self.nvertices, dtype=np.int64), np.diff(self.xnets)
            )
            self.__dict__["_vert_of_pin"] = cached
        return cached

    # ------------------------------------------------------------------

    def _validate(self) -> None:
        if self.xpins.size < 1 or self.xpins[0] != 0:
            raise ModelError("xpins must start at 0")
        if np.any(np.diff(self.xpins) < 0):
            raise ModelError("xpins must be nondecreasing")
        if self.xpins[-1] != self.pins.size:
            raise ModelError("xpins[-1] must equal len(pins)")
        if self.ncosts.size != self.nnets:
            raise ModelError("one cost per net required")
        if self.pins.size and (self.pins.min() < 0 or self.pins.max() >= self.nvertices):
            raise ModelError("pin vertex id out of range")
        if np.any(self.vweights < 0):
            raise ModelError("vertex weights must be nonnegative")
        if np.any(self.ncosts < 0):
            raise ModelError("net costs must be nonnegative")

    def _build_vertex_to_net(self) -> None:
        n = self.nvertices
        sizes = np.diff(self.xpins)
        net_of_pin = np.repeat(np.arange(self.nnets, dtype=np.int64), sizes)
        self.__dict__["_net_of_pin"] = net_of_pin  # seeds the net_of_pin cache
        order = stable_order(self.pins, n)
        self.nets = net_of_pin[order]
        counts = np.bincount(self.pins, minlength=n)
        self.xnets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.xnets[1:])
