"""Trace exporters: human tree, schema-versioned JSON, Chrome trace.

Three views of one :class:`~repro.obs.trace.Trace`:

- :func:`tree_str` — the CLI ``--trace -`` view: an indented tree with
  per-span seconds, share of the parent, attributes and counters;
- :func:`to_json` / :func:`from_json` — a schema-versioned dict with
  stable (sorted) keys that round-trips exactly; the machine-readable
  record bench/regression tooling consumes;
- :func:`to_chrome` — Chrome trace-event format (the ``traceEvents``
  array), loadable in Perfetto / ``chrome://tracing``.  Span ``attrs``
  become ``args``; a ``worker`` (or ``tid``) attribute maps to the
  event's ``tid`` row, and a ``pid`` attribute (the ``sweep.task`` span
  of each sweep worker) puts that span and its whole subtree on the
  worker's process row.

All timestamps are measured from the trace's ``t0``, so timelines
start at zero regardless of process uptime.
"""

from __future__ import annotations

import json

from repro.obs.trace import SCHEMA_VERSION, Span, Trace

__all__ = [
    "from_json",
    "to_chrome",
    "to_json",
    "tree_str",
    "write_trace",
]


# ----------------------------------------------------------------------
# Human-readable tree
# ----------------------------------------------------------------------


def _fmt_attrs(sp: Span) -> str:
    parts = [f"{k}={v}" for k, v in sp.attrs.items()]
    parts += [f"{k}={v}" for k, v in sp.counters.items()]
    return (" [" + " ".join(parts) + "]") if parts else ""


def tree_str(trace: Trace) -> str:
    """Indented span tree with durations and parent share."""
    lines = ["span" + " " * 40 + "seconds   share"]

    def walk(sp: Span, depth: int, parent_dur: float) -> None:
        label = "  " * depth + sp.name
        share = 100.0 * sp.dur / parent_dur if parent_dur > 0 else 100.0
        lines.append(f"{label:<42}  {sp.dur:8.4f}  {share:5.1f}%{_fmt_attrs(sp)}")
        for child in sp.children:
            walk(child, depth + 1, sp.dur)

    total = sum(sp.dur for sp in trace.spans)
    for sp in trace.spans:
        walk(sp, 0, total)
    totals = trace.total_counters()
    if totals:
        lines.append(
            "counters: "
            + " ".join(f"{k}={totals[k]}" for k in sorted(totals))
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Schema-versioned JSON
# ----------------------------------------------------------------------


def _span_dict(sp: Span) -> dict:
    return {
        "name": sp.name,
        "t0": sp.t0,
        "dur": sp.dur,
        "attrs": {k: sp.attrs[k] for k in sorted(sp.attrs)},
        "counters": {k: sp.counters[k] for k in sorted(sp.counters)},
        "children": [_span_dict(c) for c in sp.children],
    }


def to_json(trace: Trace) -> dict:
    """The stable-keyed, schema-versioned span-tree document."""
    return {
        "schema": SCHEMA_VERSION,
        "t0": trace.t0,
        "counters": {k: trace.counters[k] for k in sorted(trace.counters)},
        "spans": [_span_dict(sp) for sp in trace.spans],
    }


def _span_from(d: dict) -> Span:
    return Span(
        name=d["name"],
        t0=float(d["t0"]),
        dur=float(d["dur"]),
        attrs=dict(d.get("attrs", {})),
        counters=dict(d.get("counters", {})),
        children=[_span_from(c) for c in d.get("children", [])],
    )


def from_json(doc: dict) -> Trace:
    """Rebuild a trace saved by :func:`to_json`.

    Raises ``ValueError`` on an unknown schema version — the document
    is versioned precisely so silent misreads cannot happen.
    """
    got = doc.get("schema")
    if got != SCHEMA_VERSION:
        raise ValueError(
            f"trace document has schema {got!r}, expected {SCHEMA_VERSION}"
        )
    return Trace(
        t0=float(doc["t0"]),
        spans=[_span_from(d) for d in doc.get("spans", [])],
        counters=dict(doc.get("counters", {})),
    )


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------


def to_chrome(trace: Trace) -> dict:
    """The ``{"traceEvents": [...]}`` document Perfetto loads.

    Every span becomes one complete (``"ph": "X"``) event; zero-length
    spans (markers from :func:`~repro.obs.trace.event`) become instant
    (``"ph": "i"``) events.  ``ts``/``dur`` are microseconds from the
    trace's ``t0``.
    """
    events: list[dict] = []

    def walk(sp: Span, pid: int) -> None:
        pid = int(sp.attrs.get("pid", pid))
        args = {k: sp.attrs[k] for k in sorted(sp.attrs)}
        args.update((k, sp.counters[k]) for k in sorted(sp.counters))
        ev = {
            "name": sp.name,
            "ts": (sp.t0 - trace.t0) * 1e6,
            "pid": pid,
            "tid": int(sp.attrs.get("worker", sp.attrs.get("tid", 0))),
            "args": args,
        }
        if sp.dur > 0 or sp.children:
            ev["ph"] = "X"
            ev["dur"] = sp.dur * 1e6
        else:
            ev["ph"] = "i"
            ev["s"] = "t"
        events.append(ev)
        for child in sp.children:
            walk(child, pid)

    for sp in trace.spans:
        walk(sp, 0)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# One-call file writer (the CLI --trace back end)
# ----------------------------------------------------------------------

FORMATS = ("chrome", "json", "tree")


def write_trace(trace: Trace, path: str, fmt: str = "chrome") -> None:
    """Write ``trace`` to ``path`` in one of :data:`FORMATS`."""
    if fmt == "tree":
        payload = tree_str(trace) + "\n"
    elif fmt == "json":
        payload = json.dumps(to_json(trace), indent=2, sort_keys=True) + "\n"
    elif fmt == "chrome":
        payload = json.dumps(to_chrome(trace)) + "\n"
    else:
        raise ValueError(f"unknown trace format {fmt!r}; expected {FORMATS}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
