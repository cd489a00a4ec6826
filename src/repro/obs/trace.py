"""The tracer core: ambient span trees, counters, and the clock.

The repository's one self-observation mechanism:

- :func:`tracing` opens an ambient :class:`Trace` collector (nested
  blocks shadow the outer one and restore it on exit);
- :func:`span` times a named block into the current trace as a node of
  a hierarchical span tree (engine plan/compile, partitioner stages,
  simulator phases, solver iterations, sweep cells — see the taxonomy
  in DESIGN.md "Observability layer");
- :func:`add` bumps a counter (cache hits, words sent, flops) on the
  innermost open span;
- :func:`event` records an instantaneous marker (a native kernel
  build, an artifact-cache store);
- :func:`record` appends an *already measured* span — a window timed
  elsewhere, such as in another process;
- :func:`graft` attaches whole span trees and counters collected by
  another :func:`tracing` block — how a traced sweep merges the trees
  its worker processes return.

Every helper is a cheap no-op when no trace is open (one thread-local
read), so call sites instrument unconditionally; traced runs stay
bit-identical to untraced runs because nothing here touches numeric
state.  Collection is **thread-confined**: the trace binds to the
opening thread, spans recorded by other threads fall into that
thread's own ambient slot (or nowhere).  Worker *processes* never
share a trace object — they collect their own and send it back with
their results, and the coordinator grafts it in (see
:func:`repro.sweep.run_sweep`).

:func:`now` is the repository's one sanctioned wall-clock read; lint
rule ``REP008`` confines direct ``time.perf_counter`` calls to this
package so every timing in ``src/`` flows through the same clock.

There is no separate profiler: the CLI's ``--profile`` tables are a
fold over the run's trace (:func:`repro.obs.export.stage_table`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "SCHEMA_VERSION",
    "Span",
    "Trace",
    "active_trace",
    "add",
    "current_span",
    "event",
    "graft",
    "now",
    "record",
    "span",
    "tracing",
]

#: Version of the exported JSON span-tree schema (see repro.obs.export).
SCHEMA_VERSION = 1


def now() -> float:
    """Monotonic seconds (``CLOCK_MONOTONIC`` under CPython on Linux).

    The single sanctioned timing primitive: system-wide, so timestamps
    taken in forked worker processes are directly comparable with the
    coordinator's (the property merged worker spans in the Chrome
    trace ride on).
    """
    return time.perf_counter()


@dataclass
class Span:
    """One timed node of the trace tree.

    ``t0`` is a :func:`now` timestamp, ``dur`` elapsed seconds (0 while
    open), ``attrs`` structured labels (method, K, worker, step …),
    ``counters`` accumulated numeric tallies charged via :func:`add`.
    """

    name: str
    t0: float
    dur: float = 0.0
    attrs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def bump(self, counter: str, value: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class Trace:
    """A collected span forest plus trace-global counters.

    ``t0`` (the collector-open timestamp) is the zero point every
    exporter measures from, so timelines start at 0 regardless of
    process uptime.
    """

    t0: float = field(default_factory=now)
    spans: list[Span] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def walk(self):
        """Yield every span in the forest, depth-first."""
        for root in self.spans:
            yield from root.walk()

    def total_counters(self) -> dict:
        """Trace-global counters plus every span's, summed by name."""
        totals = dict(self.counters)
        for sp in self.walk():
            for key, value in sp.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals


# The ambient trace and its open-span stack, per thread.
_TLS = threading.local()


def active_trace() -> Trace | None:
    """The ambient trace, if a :func:`tracing` block is open."""
    return getattr(_TLS, "trace", None)


def current_span() -> Span | None:
    """The innermost open span of this thread, or None."""
    stack = getattr(_TLS, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def tracing(trace: Trace | None = None):
    """Collect a span tree from everything run inside.

    Yields the :class:`Trace`; nested ``tracing`` blocks shadow the
    outer collector and restore it on exit (the outer trace does not
    see the inner block's spans).
    """
    tr = Trace() if trace is None else trace
    prev = active_trace(), getattr(_TLS, "stack", None)
    _TLS.trace, _TLS.stack = tr, []
    try:
        yield tr
    finally:
        _TLS.trace, _TLS.stack = prev


def _attach(trace: Trace, sp: Span) -> None:
    parent = current_span()
    if parent is not None:
        parent.children.append(sp)
    else:
        trace.spans.append(sp)


@contextmanager
def span(name: str, **attrs):
    """Time a block as one node of the ambient trace tree.

    No trace open → yields None and does nothing else.  On exception
    the span still closes (stack restored, duration recorded) and is
    labelled ``error=<exception type>`` before the exception
    propagates.
    """
    trace = active_trace()
    if trace is None:
        yield None
        return
    sp = Span(name=name, t0=now(), attrs=attrs)
    _attach(trace, sp)
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    stack.append(sp)
    try:
        yield sp
    except BaseException as exc:
        sp.attrs["error"] = type(exc).__name__
        raise
    finally:
        sp.dur = now() - sp.t0
        stack.pop()


def add(counter: str, value: float = 1) -> None:
    """Bump ``counter`` on the innermost open span (or the trace's
    global counters between spans).  No trace open → no-op."""
    trace = active_trace()
    if trace is None:
        return
    sp = current_span()
    if sp is not None:
        sp.bump(counter, value)
    else:
        trace.counters[counter] = trace.counters.get(counter, 0) + value


def event(name: str, **attrs) -> None:
    """Record an instantaneous marker (a zero-duration span)."""
    trace = active_trace()
    if trace is None:
        return
    _attach(trace, Span(name=name, t0=now(), attrs=attrs))


def record(name: str, t0: float, dur: float, **attrs) -> None:
    """Append an externally measured span under the current position.

    ``t0``/``dur`` are :func:`now` seconds measured elsewhere — e.g. in
    another process, whose clock is the same system-wide clock.
    """
    trace = active_trace()
    if trace is None:
        return
    _attach(trace, Span(name=name, t0=float(t0), dur=float(dur), attrs=attrs))


def graft(spans: list[Span], counters: dict) -> None:
    """Attach another trace's root ``spans`` and trace-level
    ``counters`` at the current position, as if recorded here.

    The spans hang under the innermost open span (or become roots);
    each counter is charged like :func:`add`.  No trace open → no-op.
    """
    trace = active_trace()
    if trace is None:
        return
    for sp in spans:
        _attach(trace, sp)
    for counter, value in counters.items():
        add(counter, value)
