"""Unified cache/counter reporting: one report over every store.

The repo accumulates operational counters in three unrelated places —
:meth:`repro.engine.PartitionEngine.cache_info` (memo hits/misses and
cached bytes), :attr:`repro.sweep.cache.ArtifactCache.stats` (on-disk
artifact hits/misses/stores/corrupt evictions), and
:func:`repro.native.build.native_status` (kernel build-cache state).
This module aggregates them into one schema-stable report (the CLI
``repro stats`` subcommand's back end).

Engines and artifact caches self-register at construction into
process-wide weak sets, so :func:`gather_stats` sees every live store
without the caller threading references around; dead ones drop out
with garbage collection.  Registration is duck-typed (anything with
``cache_info()`` / ``.stats``), keeping this module a leaf — the
native status is imported lazily at call time for the same reason.
"""

from __future__ import annotations

import weakref

__all__ = ["gather_stats", "register_cache", "register_engine", "stats_text"]

_ENGINES: "weakref.WeakSet" = weakref.WeakSet()
_CACHES: "weakref.WeakSet" = weakref.WeakSet()


def register_engine(engine) -> None:
    """Track a live engine (anything with ``cache_info()``)."""
    _ENGINES.add(engine)


def register_cache(cache) -> None:
    """Track a live artifact cache (anything with a ``stats`` dict)."""
    _CACHES.add(cache)


def gather_stats(engines=None, caches=None, native: bool = True) -> dict:
    """The unified counter report.

    ``engines``/``caches`` default to every registered live object;
    ``native=False`` skips the kernel build-cache probe (which would
    otherwise attempt one build).  Keys are stable: ``engines`` (list
    of ``cache_info()`` dicts), ``engine_totals`` (summed counters),
    ``artifact_caches`` (list of per-cache dicts), ``artifact_totals``,
    and ``native`` (the :func:`~repro.native.build.native_status`
    dict, or None when skipped).
    """
    engines = list(_ENGINES) if engines is None else list(engines)
    caches = list(_CACHES) if caches is None else list(caches)

    engine_infos = [e.cache_info() for e in engines]
    engine_totals = {"hits": 0, "misses": 0, "entries": 0, "cached_bytes": 0}
    for info in engine_infos:
        for key in engine_totals:
            engine_totals[key] += int(info.get(key, 0))

    cache_infos = [
        {"root": str(getattr(c, "root", "")), **dict(c.stats)} for c in caches
    ]
    artifact_totals = {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0}
    for info in cache_infos:
        for key in artifact_totals:
            artifact_totals[key] += int(info.get(key, 0))

    native_info = None
    if native:
        from repro.native.build import native_status

        native_info = native_status()
    return {
        "engines": engine_infos,
        "engine_totals": engine_totals,
        "artifact_caches": cache_infos,
        "artifact_totals": artifact_totals,
        "native": native_info,
    }


def stats_text(report: dict) -> str:
    """Human rendering of :func:`gather_stats` (the non-``--json`` CLI view)."""
    lines = []
    et = report["engine_totals"]
    lines.append(
        f"engines: {len(report['engines'])} live  "
        f"hits={et['hits']} misses={et['misses']} "
        f"entries={et['entries']} cached_bytes={et['cached_bytes']}"
    )
    at = report["artifact_totals"]
    lines.append(
        f"artifact caches: {len(report['artifact_caches'])} live  "
        f"hits={at['hits']} misses={at['misses']} "
        f"stores={at['stores']} corrupt={at['corrupt']}"
    )
    for info in report["artifact_caches"]:
        lines.append(
            f"  {info['root']}: hits={info['hits']} misses={info['misses']} "
            f"stores={info['stores']} corrupt={info['corrupt']}"
        )
    native = report.get("native")
    if native is not None:
        lines.append(
            f"native: available={native['available']} "
            f"compiler={native['compiler'] or '(none)'} "
            f"built_this_process={native['built_this_process']}"
        )
        lines.append(f"  cache_dir={native['cache_dir']}")
        if native["reason"]:
            lines.append(f"  reason={native['reason']}")
    return "\n".join(lines)
