"""Cross-cutting metric helpers and paper-style table formatting."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "geomean",
    "load_imbalance",
    "format_li",
    "format_table",
]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, ignoring non-positive entries the way the paper's
    summary rows must (a zero volume would zero the whole product)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return float(math.exp(sum(math.log(v) for v in vals) / len(vals)))


def load_imbalance(loads: np.ndarray) -> float:
    """``max/avg − 1`` of a per-processor load vector.

    An empty vector (no processors, or a phase nobody participates in)
    is perfectly balanced by convention: 0.0, not a ``max()`` crash.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0:
        return 0.0
    avg = loads.mean()
    return float(loads.max() / avg - 1.0) if avg > 0 else 0.0


def format_li(li: float) -> str:
    """The paper's LI rendering: '12.9%' below 100%, else '1.2*'."""
    if li >= 1.0:
        return f"{li:.1f}*"
    return f"{100.0 * li:.1f}%"


def format_table(headers: Sequence[str], rows: Iterable[Sequence], title: str = "") -> str:
    """Fixed-width ASCII table (markdown-ish) for benchmark output."""
    srows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in srows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
