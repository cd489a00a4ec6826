"""Frozen text of Tables I–VII at tiny scale.

The fixture ``fixtures/tables_tiny.json`` holds the full ``.text`` of
every table at ``ExperimentConfig(scale="tiny")`` with each table's
default K.  :func:`check` regenerates the tables and reports every
table whose text differs, so a change that moves one character of one
cell fails.

Run as a script to check the fixture, or to rewrite it (only after a
deliberate, reviewed change of the table numbers or layout)::

    PYTHONPATH=src python -m tests.golden_tables [--jobs N]
    PYTHONPATH=src python -m tests.golden_tables --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "tables_tiny.json"

#: Table ids, in fixture order.
TABLES = ("1", "2", "3", "4", "5", "6", "7")


def results(jobs: int = 1) -> dict:
    """Table id -> :class:`~repro.experiments.tables.TableResult` of a
    fresh tiny-scale run at default K."""
    from repro import experiments
    from repro.experiments import ExperimentConfig

    cfg = ExperimentConfig(scale="tiny")
    return {t: getattr(experiments, f"run_table{t}")(cfg, jobs=jobs) for t in TABLES}


def snapshot(jobs: int = 1) -> dict[str, str]:
    """Table id -> text, computed from the current code."""
    return {t: res.text for t, res in results(jobs).items()}


def diff(got: dict[str, str]) -> list[str]:
    """Tables whose text differs from the committed fixture."""
    want = json.loads(FIXTURE.read_text())
    problems = []
    for t in sorted(set(want) | set(got)):
        if got.get(t) != want.get(t):
            problems.append(f"table {t}: text differs from {FIXTURE.name}")
    return problems


def check(jobs: int = 1) -> list[str]:
    """Mismatches of a fresh run against the fixture (empty when every
    table is byte-identical)."""
    return diff(snapshot(jobs))


if __name__ == "__main__":
    args = sys.argv[1:]
    jobs = int(args[args.index("--jobs") + 1]) if "--jobs" in args else 1
    if "--write" in args:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(snapshot(jobs), indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        found = check(jobs)
        print("\n".join(found) or "golden table text matches")
        raise SystemExit(1 if found else 0)
