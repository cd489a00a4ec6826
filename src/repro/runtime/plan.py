"""The frozen communication plan and its repeated-apply executor.

A :class:`CommPlan` holds everything about one partitioned SpMV that
does not depend on the input vector: the message ledger and superstep
schedule (computed once, shared by every subsequent run), and the
gather/scatter index arrays of the numeric kernel.  All three
execution models reduce to one apply shape::

    psums = group1(pre_vals * x[pre_cols])      # grouped partial sums
    fsums = group2(psums)                       # routed combine (s2D-b)
    y     = scatter(main_vals * x[main_cols])   # row-owner products
          + scatter(fsums at fold_rows)         # fold received partials

- single-phase: ``pre_*`` are the precompute nonzeros, ``main_*`` the
  row-owner nonzeros, no ``group2``;
- two-phase: every nonzero goes through ``group1`` (partials per
  (holder, row)), no ``main_*`` — ``y`` is the fold alone;
- mesh-routed s2D-b: like single-phase plus ``group2``, the combine of
  partials at mesh intermediates.

Plans are built by each execution model's single derivation
(:func:`repro.simulate.report.derive`), and the per-call simulators
compute their ``y`` with this module's NumPy apply — so a simulator's
``run.y`` and ``plan.apply_y`` under the NumPy backend are one
computation, not two that must agree.  The grouping stages are frozen
:class:`~repro.kernels.GroupPlan`s, the scatters ``np.bincount``
accumulations.

The native C backend (:mod:`repro.native`, the per-call default of
``backend=``; ``backend="numpy"`` runs the NumPy apply) runs a whole
apply as one call of ``repro_plan_apply``, whose plan arrays are
checked and bound to addresses once per plan (``_NativeApply``);
:meth:`CommPlan.bind` also binds a loop's own ``x``/``y`` buffers
once, so each step of an iterative solver is that one call and nothing
else.  The group stages
and the fold are index-order scatters, so every group sum equals
``np.bincount``/``np.add.at`` element order bit for bit.  The main
products are not scattered: the derivations emit the main section in
row order (``main_rows`` nondecreasing — a ``plan.main-order``
invariant of :func:`repro.verify.check_plan`), so each row's products
are one contiguous segment.  The kernel sums them with one register
per row, four rows in lockstep, element order within a row: each
row's register starts at +0.0 and adds that row's products in element
order, and the four rows of a group only interleave their separate add
chains.  That is exactly what ``np.bincount`` does for the row's bin —
it starts every bin at +0.0 and adds its weights in element order — so
every row's sum is bit-identical, down to a row of ``-0.0`` products
summing to +0.0.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import SimulationError, VerificationError
from repro.kernels import GroupPlan
from repro.native import ops as native_ops
from repro.native import resolve_backend
from repro.native.build import get_kernels
from repro.simulate.common import resolve_x
from repro.simulate.machine import MachineModel, PhaseCost, SpMVRun
from repro.simulate.messages import Ledger

__all__ = ["CommPlan"]


_F64 = np.dtype(np.float64)
_I64 = np.dtype(np.int64)


def _plan_name(plan: "CommPlan") -> str:
    return (
        f"CommPlan(executor={plan.executor!r}, kind={plan.kind!r}, "
        f"K={plan.nparts}, shape=({plan.nrows}, {plan.ncols}))"
    )


class _NativeApply:
    """A plan's apply as one call of the native ``repro_plan_apply``.

    Built lazily on the first ``backend="native"`` apply and cached on
    the plan (never serialized — :meth:`CommPlan.__getstate__` drops
    it, and :meth:`CommPlan.to_state` ignores it).  Construction does
    everything iteration-invariant once: the group indices densified
    (see ``native_ops.compact_group`` — same accumulation order, no
    span-sized accumulators), the main section's row pointers built
    from ``main_rows``, and every plan array checked (dtype, layout,
    sizes, index bounds — :class:`~repro.errors.VerificationError`
    naming ``plan_apply`` before any index reaches C) and turned into
    an address.  ``main_cols``/``main_vals`` are used
    in place: the derivations emit the main section in row order, and
    a plan whose ``main_rows`` decrease anywhere is refused with
    :class:`~repro.errors.VerificationError` (the row-segmented kernel
    would silently sum the wrong products).

    An apply then checks ``x``, allocates ``y`` and a workspace with
    ``np.empty`` (the plan holds no shared mutable state) and makes
    exactly one ctypes call; :meth:`bind` marshals a caller's fixed
    ``x``/``y`` and a private workspace once instead.  The addresses
    stay valid because this object keeps every array it bound.
    """

    def __init__(self, plan: "CommPlan", lib):
        nrows = int(plan.nrows)
        self.nrows, self.ncols = nrows, int(plan.ncols)
        rows = plan.main_rows
        if rows is not None and rows.size and np.any(rows[1:] < rows[:-1]):
            raise VerificationError(
                f"{_plan_name(plan)}: main_rows is not nondecreasing — "
                "the native apply sums each row's main products as one "
                "contiguous segment"
            )
        g1, ng1 = native_ops.compact_group(plan.group1)
        g2, ng2 = (
            native_ops.compact_group(plan.group2)
            if plan.group2 is not None
            else (None, 0)
        )
        pre_vals = np.ascontiguousarray(plan.pre_vals, dtype=np.float64)
        pre_cols = np.ascontiguousarray(plan.pre_cols, dtype=np.int64)
        fold_rows = np.ascontiguousarray(plan.fold_rows, dtype=np.int64)
        npre, nfold = int(pre_vals.size), int(fold_rows.size)
        specs = [
            ("pre_cols", pre_cols, self.ncols, npre),
            ("group1 index", g1, ng1, npre),
            ("fold_rows", fold_rows, nrows, ng1 if g2 is None else ng2),
        ]
        if g2 is not None:
            specs.append(("group2 index", g2, ng2, ng1))
        ptr = main_cols = main_vals = None
        if rows is not None:
            ptr = np.searchsorted(rows, np.arange(nrows + 1, dtype=np.int64))
            main_cols = np.ascontiguousarray(plan.main_cols, dtype=np.int64)
            main_vals = np.ascontiguousarray(plan.main_vals, dtype=np.float64)
            specs += [
                ("main_rows", rows, nrows, rows.size),
                ("main_cols", main_cols, self.ncols, rows.size),
                ("main_vals", main_vals, None, rows.size),
            ]
        native_ops._validate("plan_apply", npre, *specs)
        arrays = (
            ("pre_vals", pre_vals, _F64), ("pre_cols", pre_cols, _I64),
            ("group1 index", g1, _I64), ("group2 index", g2, _I64),
            ("fold_rows", fold_rows, _I64), ("row pointers", ptr, _I64),
            ("main_cols", main_cols, _I64), ("main_vals", main_vals, _F64),
        )
        self._keep = arrays
        self._fn = lib.plan_apply
        self._bound = (
            nrows, npre, ng1, ng2, nfold,
            *native_ops.addresses("plan_apply", *arrays),
        )
        # psums, then fsums (routed), then the fold accumulator (main
        # section plus a fold).
        self._work = ng1 + ng2 + (nrows if ptr is not None and nfold else 0)

    def bind(self, x: np.ndarray, y: np.ndarray) -> functools.partial:
        """A zero-argument ``repro_plan_apply`` call writing ``A @ x``
        into ``y``, every address bound now (:meth:`CommPlan.bind` has
        checked both vectors).  The call keeps ``x``, ``y``, its
        private workspace and this object alive."""
        work = np.empty(self._work)
        call = functools.partial(
            self._fn,
            *self._bound,
            *native_ops.addresses(
                "plan_apply", ("x", x, _F64), ("y", y, _F64), ("work", work, _F64)
            ),
        )
        call.keep = (self, x, y, work)  # an address alone keeps nothing alive
        return call

    def apply_y(self, x: np.ndarray) -> np.ndarray:
        """``y`` for a C-contiguous float64 ``x`` of length ``ncols``
        (:class:`TypeError` / :class:`~repro.errors.SimulationError`
        otherwise — nothing is converted here)."""
        if getattr(x, "shape", None) != (self.ncols,):
            raise SimulationError(
                f"native plan apply: x has shape {getattr(x, 'shape', None)}, "
                f"expected ({self.ncols},)"
            )
        y = np.empty(self.nrows)
        work = np.empty(self._work)
        self._fn(
            *self._bound,
            *native_ops.addresses(
                "plan_apply", ("x", x, _F64), ("y", y, _F64), ("work", work, _F64)
            ),
        )
        return y


@dataclass
class CommPlan:
    """One partition's SpMV, compiled for repeated application.

    Built by :func:`repro.runtime.compile_plan`; treat every field as
    frozen — the ledger and phase schedule are shared by all runs the
    plan produces.
    """

    executor: str
    kind: str
    nparts: int
    nrows: int
    ncols: int
    nnz: int
    ledger: Ledger
    phases: list[PhaseCost]
    pre_cols: np.ndarray
    pre_vals: np.ndarray
    group1: GroupPlan
    fold_rows: np.ndarray
    group2: GroupPlan | None = None
    main_rows: np.ndarray | None = None
    main_cols: np.ndarray | None = None
    main_vals: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------- apply

    def _native(self) -> _NativeApply:
        """The lazily-built native kernel state (resolve_backend has
        already checked that the library loads)."""
        state = self.__dict__.get("_native_state")
        if state is None:
            state = _NativeApply(self, get_kernels())
            self.__dict__["_native_state"] = state
        return state

    def _apply_y_numpy(self, x: np.ndarray) -> np.ndarray:
        """The NumPy-backend apply, with no span or counters; both
        :meth:`apply_y` and the per-call simulators run it."""
        psums = self.group1.apply(self.pre_vals * x[self.pre_cols])
        fsums = self.group2.apply(psums) if self.group2 is not None else psums
        if self.main_rows is None:
            return np.bincount(self.fold_rows, weights=fsums, minlength=self.nrows)
        y = np.bincount(
            self.main_rows,
            weights=self.main_vals * x[self.main_cols],
            minlength=self.nrows,
        )
        if self.fold_rows.size:
            y += np.bincount(self.fold_rows, weights=fsums, minlength=self.nrows)
        return y

    def apply_y(
        self, x: np.ndarray | None = None, *, backend: str = "native"
    ) -> np.ndarray:
        """``A @ x`` through the compiled schedule — just the vector.

        Bit-identical to the matching per-call simulator's ``run.y``
        under either kernel backend (``backend``: ``"native"``, one
        ``repro_plan_apply`` call, or ``"numpy"``, the simulators' own
        apply; see :func:`repro.native.resolve_backend`).
        """
        x = resolve_x(x, self.ncols)
        resolve_backend(backend)
        with obs.span("plan.apply", mode=self.executor, backend=backend) as sp:
            if sp is not None:  # the ledger sums cost more than a small apply
                obs.add("plan.sent_words", int(self.words))
                obs.add("plan.msgs", int(self.msgs))
            if backend == "native":
                return self._native().apply_y(np.ascontiguousarray(x))
            return self._apply_y_numpy(x)

    def bind(
        self, x: np.ndarray, y: np.ndarray, *, backend: str = "native"
    ) -> Callable[[], None]:
        """A zero-argument call making ``y[:] = A @ x``, for a loop that
        multiplies the same two buffers many times.

        ``x`` and ``y`` are checked once, here: C-contiguous float64
        (:class:`TypeError` otherwise), of lengths ``ncols`` and
        ``nrows``, ``y`` writable and not overlapping ``x``
        (:class:`~repro.errors.SimulationError`).  Nothing is converted:
        the call reads ``x`` and writes ``y`` in place, so update their
        contents, never rebind them.  The native backend binds every
        address now and each call is one ``repro_plan_apply`` into a
        workspace owned by the call; the NumPy backend runs
        :meth:`_apply_y_numpy` and copies the result into ``y``.  Both
        are bit-identical to :meth:`apply_y`.  The ``plan.apply`` span
        and its counters are emitted by every call iff a trace is open
        when ``bind`` runs.  The plan itself stays free of mutable
        state.
        """
        for name, v, n in (("x", x, self.ncols), ("y", y, self.nrows)):
            if not isinstance(v, np.ndarray) or v.dtype != _F64 or not v.flags.c_contiguous:
                raise TypeError(
                    f"{_plan_name(self)}.bind: {name} must be a C-contiguous "
                    f"float64 array"
                )
            if v.shape != (n,):
                raise SimulationError(
                    f"{_plan_name(self)}.bind: {name} has shape {v.shape}, "
                    f"expected ({n},)"
                )
        if not y.flags.writeable or np.may_share_memory(x, y):
            raise SimulationError(
                f"{_plan_name(self)}.bind: y must be writable and must not overlap x"
            )
        if resolve_backend(backend) == "native":
            raw = self._native().bind(x, y)
        else:
            apply = self._apply_y_numpy

            def raw() -> None:
                np.copyto(y, apply(x))

        if obs.active_trace() is None:
            return raw
        attrs = {"mode": self.executor, "backend": backend}
        words, msgs = int(self.words), int(self.msgs)

        def traced() -> None:
            with obs.span("plan.apply", **attrs):
                obs.add("plan.sent_words", words)
                obs.add("plan.msgs", msgs)
                raw()

        return traced

    def apply(
        self, x: np.ndarray | None = None, *, backend: str = "native"
    ) -> SpMVRun:
        """One simulated multiply with zero per-call set-up.

        Only ``y`` is computed per call; the returned run shares this
        plan's (frozen) ledger, phase schedule and meta — treat them
        as read-only, since every run of this plan (and the plan's own
        ``words``/``msgs``/``time``) reads the same objects.
        """
        return SpMVRun(
            y=self.apply_y(x, backend=backend),
            ledger=self.ledger,
            phases=self.phases,
            nnz=self.nnz,
            kind=self.kind,
            meta=self.meta,
        )

    # ------------------------------------------------------------ pickling

    def __getstate__(self) -> dict:
        # The native kernel state wraps a ctypes library; rebuild it
        # lazily on the other side instead of pickling it.
        state = self.__dict__.copy()
        state.pop("_native_state", None)
        return state

    # ------------------------------------------------------------- costs

    @property
    def words(self) -> int:
        """Words sent per iteration (static across applies)."""
        return self.ledger.total_volume()

    @property
    def msgs(self) -> int:
        """Messages sent per iteration (static across applies)."""
        return self.ledger.total_msgs()

    def time(self, machine: MachineModel) -> float:
        """Simulated per-iteration run time under ``machine``."""
        return machine.run_time(self.phases, self.ledger)

    # ------------------------------------------------------------- state

    def to_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Split the plan into a JSON header and named arrays.

        The inverse of :meth:`from_state`; used by
        :func:`repro.partition.serialize.pack_plan`, which frames the
        header and the raw arrays as one payload.
        """
        from repro.partition.serialize import json_safe_meta

        header: dict = {
            "executor": self.executor,
            "kind": self.kind,
            "nparts": self.nparts,
            "nrows": self.nrows,
            "ncols": self.ncols,
            "nnz": self.nnz,
            "meta": json_safe_meta(self.meta),
            "has_main": self.main_rows is not None,
            "groups": [
                None
                if g is None
                else {"mode": g.mode, "length": g.length, "has_take": g.take is not None}
                for g in (self.group1, self.group2)
            ],
            "phases": [
                {
                    "name": ph.name,
                    "comm_phase": ph.comm_phase,
                    "has_flops": ph.flops is not None,
                }
                for ph in self.phases
            ],
            "ledger_phases": self.ledger.phase_names,
        }
        arrays: dict[str, np.ndarray] = {
            "pre_cols": self.pre_cols,
            "pre_vals": self.pre_vals,
            "fold_rows": self.fold_rows,
            "g1_index": self.group1.index,
        }
        if self.group1.take is not None:
            arrays["g1_take"] = self.group1.take
        if self.group2 is not None:
            arrays["g2_index"] = self.group2.index
            if self.group2.take is not None:
                arrays["g2_take"] = self.group2.take
        if self.main_rows is not None:
            arrays["main_rows"] = self.main_rows
            arrays["main_cols"] = self.main_cols
            arrays["main_vals"] = self.main_vals
        for i, ph in enumerate(self.phases):
            if ph.flops is not None:
                arrays[f"phase{i}_flops"] = ph.flops
        for i, name in enumerate(self.ledger.phase_names):
            src, dst, words = self.ledger.phase_pairs(name)
            arrays[f"ledger{i}_src"] = src
            arrays[f"ledger{i}_dst"] = dst
            arrays[f"ledger{i}_words"] = words
        return header, arrays

    @classmethod
    def from_state(cls, header: dict, arrays: dict[str, np.ndarray]) -> "CommPlan":
        """Rebuild a plan saved by :meth:`to_state`.

        The arrays are used as given, never copied: a loaded plan's are
        read-only views of its payload.
        """

        def group(slot: int, prefix: str) -> GroupPlan | None:
            spec = header["groups"][slot]
            if spec is None:
                return None
            return GroupPlan(
                mode=spec["mode"],
                index=arrays[f"{prefix}_index"],
                length=int(spec["length"]),
                take=arrays[f"{prefix}_take"] if spec["has_take"] else None,
            )

        ledger = Ledger(int(header["nparts"]))
        for i, name in enumerate(header["ledger_phases"]):
            ledger.record_pairs(
                name,
                arrays[f"ledger{i}_src"],
                arrays[f"ledger{i}_dst"],
                arrays[f"ledger{i}_words"],
            )
        phases = [
            PhaseCost(
                name=spec["name"],
                flops=arrays[f"phase{i}_flops"] if spec["has_flops"] else None,
                comm_phase=spec["comm_phase"],
            )
            for i, spec in enumerate(header["phases"])
        ]
        has_main = header["has_main"]
        return cls(
            executor=header["executor"],
            kind=header["kind"],
            nparts=int(header["nparts"]),
            nrows=int(header["nrows"]),
            ncols=int(header["ncols"]),
            nnz=int(header["nnz"]),
            ledger=ledger,
            phases=phases,
            pre_cols=arrays["pre_cols"],
            pre_vals=arrays["pre_vals"],
            group1=group(0, "g1"),
            fold_rows=arrays["fold_rows"],
            group2=group(1, "g2"),
            main_rows=arrays["main_rows"] if has_main else None,
            main_cols=arrays["main_cols"] if has_main else None,
            main_vals=arrays["main_vals"] if has_main else None,
            meta={
                k: tuple(v) if isinstance(v, list) else v
                for k, v in header.get("meta", {}).items()
            },
        )
