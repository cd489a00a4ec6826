"""Tables I–VII of the paper, regenerated on the synthetic suites.

Each table is one :class:`TableSpec` in :data:`TABLES`: its suite, its
schemes (each under the record label its columns read), its default K
and its column list.  One renderer, :func:`run_table`, turns a spec
into a :class:`TableResult`: the formatted text (printed by
``repro table``) plus the raw records (consumed by tests and
EXPERIMENTS.md).  Matrix names match the paper so rows line up.

A spec's ``claims`` are the paper's statements about its table, each a
:class:`Claim`; :func:`check_claims` returns one :class:`Verdict` per
claim for any :class:`TableResult` of that table, at any scale.
``run_table`` never checks them: a failed claim is a result, not an
error, and the timed table paths run no checks.

A quantitative record holds one (matrix, K): ``name``, ``K``, every
scheme's :class:`~repro.simulate.PartitionQuality` under its label and
the volume ratios the columns declare.  A :class:`Column` is a header,
one or two record getters and one format; a cell row renders
``fmt(*values)`` and the per-K geomean row ``fmt(*geomeans)`` — the
formats are picked so one serves both (``f"{4:.0f}" == "4"``).  The
property tables (I, IV) render per-matrix records with no geomean row.

The quantitative tables run their :func:`table_grid` through
:func:`repro.sweep.run_sweep`: one
:class:`repro.engine.PartitionEngine` per matrix, so schemes sharing a
slot share partitioner work (Table II's s2D refines the 1D column's
vector partition).  ``jobs=N`` fans the per-matrix tasks over up to N
worker processes with records bit-identical to a serial run; ``cache_dir=…``
persists partitions and records in a content-addressed store.
"""

from __future__ import annotations

import math
import operator as op
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.metrics import format_li, format_table, geomean
from repro.partition.checkerboard import mesh_shape
from repro.sweep import MatrixRef, SchemeSpec, SweepGrid, run_sweep, suite_refs

__all__ = [
    "GRID_TABLES",
    "TABLES",
    "Claim",
    "Column",
    "TableResult",
    "TableSpec",
    "Verdict",
    "check_claims",
    "run_table",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "table_grid",
]


@dataclass
class TableResult:
    """A regenerated table: formatted text plus raw records.

    ``meta`` carries sweep bookkeeping — per-engine cache statistics
    (including ``cached_bytes`` memory-pressure numbers) and the job
    count that produced the table.
    """

    title: str
    headers: list[str]
    rows: list[list[str]]
    records: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def text(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)


@dataclass(frozen=True)
class Column:
    """One column: cells are ``fmt(*(get(record) for get in gets))``.

    ``total`` is fixed geomean-row text for a non-numeric column.
    ``ratio = (key, label, base)`` has the record builder store
    ``label``'s volume over ``base``'s under ``key``.
    """

    header: str
    gets: tuple[Callable[[dict], object], ...]
    fmt: Callable[..., str] = str
    total: str | None = None
    ratio: tuple[str, str, str] | None = None


def _key(key: str, fmt: Callable[..., str] = str) -> Column:
    """A column showing record field ``key`` under that header."""
    return Column(key, (lambda rec: rec[key],), fmt)


def _of(label: str, header: str, fmt: Callable[..., str], *attrs: str) -> Column:
    """A column of quality fields of scheme ``label``; ``{}`` in
    ``header`` is the label without dashes (``"s2D-b"`` -> ``"s2Db"``)."""
    gets = tuple(lambda rec, a=a: getattr(rec[label], a) for a in attrs)
    return Column(header.format(label.replace("-", "")), gets, fmt)


def _li(label: str) -> Column:
    return _of(label, "{}:LI", format_li, "load_imbalance")


def _lat(label: str) -> Column:
    return _of(label, "{}:lat(av/mx)", "{:.0f}/{:.0f}".format, "avg_msgs", "max_msgs")


def _sp(label: str) -> Column:
    return _of(label, "{}:Sp", "{:.1f}".format, "speedup")


def _vol(label: str, header: str = "lam{}") -> Column:
    return _of(label, header, "{:.2e}".format, "total_volume")


def _ratio(key: str, label: str, base: str) -> Column:
    header = f"{label}:lam/{base}".replace("-", "")
    return Column(header, (lambda rec: rec[key],), "{:.2f}".format, ratio=(key, label, base))


@dataclass(frozen=True)
class Claim:
    """One claim of the paper about a table: ``op(*sides(...))`` holds.

    ``sides`` maps one record (``per_record``) or the record list to
    ``(lhs, rhs)``.  Only records with ``K >= min_k`` are checked, and a
    claim left with none is not applicable.  Property-table records
    carry no K and are always checked.
    """

    text: str
    op: Callable[[float, float], bool]
    sides: Callable[..., tuple[float, float]]
    per_record: bool = True
    min_k: int = 1


@dataclass(frozen=True)
class Verdict:
    """A claim checked on one :class:`TableResult`.

    ``status`` is ``"ok"``, ``"FAIL"`` or ``"n/a"``; ``cells`` are the
    failing ``(name, K)`` records of a per-record claim and ``detail``
    the values behind the verdict, rendered.
    """

    claim: Claim
    status: str
    cells: tuple[tuple[str, int | None], ...] = ()
    detail: str = ""

    def __str__(self) -> str:
        if self.status == "n/a":
            return f"n/a (K < {self.claim.min_k}) {self.claim.text}"
        return f"{self.status:4s} {self.claim.text}{self.detail}"


def _pair(lhs: float, rhs: float) -> str:
    return f"({lhs:.4g} vs {rhs:.4g})"


def check_claims(table: int, result: TableResult) -> list[Verdict]:
    """One :class:`Verdict` per claim of ``TABLES[table]``, judged on
    ``result.records``."""
    verdicts = []
    for claim in TABLES[table].claims:
        records = [rec for rec in result.records if rec.get("K", claim.min_k) >= claim.min_k]
        if not records:
            verdicts.append(Verdict(claim, "n/a"))
        elif claim.per_record:
            cells, shown = [], []
            for rec in records:
                lhs, rhs = claim.sides(rec)
                if not claim.op(lhs, rhs):
                    name, k = rec["name"], rec.get("K")
                    cells.append((name, k))
                    shown.append(f"{name}{'' if k is None else f' K={k}'} {_pair(lhs, rhs)}")
            verdicts.append(Verdict(claim, "FAIL" if cells else "ok", tuple(cells),
                                    ": " + "; ".join(shown) if cells else ""))
        else:
            lhs, rhs = claim.sides(records)
            verdicts.append(Verdict(claim, "ok" if claim.op(lhs, rhs) else "FAIL",
                                    detail=f" {_pair(lhs, rhs)}"))
    return verdicts


@dataclass(frozen=True)
class TableSpec:
    """Everything one table declares.

    ``schemes`` pairs each record label with its grid entry (none for
    the property tables); slot sharing encodes the paper's setup.
    ``ks`` gives the default K axis.  ``keys`` open every row; the
    geomean row shows ``"geomean"`` and its K there.  Volume ratios
    divide by ``max(base volume, volume_floor)``.  ``best_of`` stores
    the fastest of those labels as ``best`` / ``best_q``.  ``claims``
    are what the paper says the table shows.
    """

    title: str
    suite: str
    columns: tuple[Column, ...]
    schemes: tuple[tuple[str, SchemeSpec], ...] = ()
    ks: Callable[[ExperimentConfig], tuple[int, ...]] = lambda cfg: ()
    keys: tuple[str, ...] = ("name", "K")
    volume_floor: int = 0
    best_of: tuple[str, ...] = ()
    claims: tuple[Claim, ...] = ()


_PROPERTIES = (_key("n"), _key("nnz"), _key("davg", "{:.1f}".format), _key("dmax"),
               _key("application"))
_1D, _2D, _S2D = (SchemeSpec("1d-rowwise", 0), SchemeSpec("finegrain", 1),
                  SchemeSpec("s2d-heuristic", 0))
_2DB, _S2DB = SchemeSpec("checkerboard", 2), SchemeSpec("s2d-bounded", 0)


def _q(label: str, attr: str = "total_volume", times: float = 1.0):
    """``times`` x scheme ``label``'s quality field ``attr`` of a record."""
    return lambda rec: times * getattr(rec[label], attr)


def _at(records: list[dict], pick=max) -> list[dict]:
    """The records at the largest (``pick=min``: smallest) K."""
    k = pick(rec["K"] for rec in records)
    return [rec for rec in records if rec["K"] == k]


def _gm(records: list[dict], label: str, attr: str = "load_imbalance") -> float:
    return geomean(getattr(rec[label], attr) for rec in records)


def _top_gm(label: str, attr: str = "load_imbalance", times: float = 1.0):
    """``times`` x the geomean of ``label``'s ``attr`` at the largest K."""
    return lambda recs: times * _gm(_at(recs), label, attr)


def _top_ratio(key: str):
    """The geomean of record field ``key`` at the largest K."""
    return lambda recs: geomean(rec[key] for rec in _at(recs))


def _const(side):
    return side if callable(side) else lambda _: side


def _record(text: str, rel, lhs, rhs) -> Claim:
    """A per-record claim ``rel(lhs(rec), rhs(rec))``; a number side is
    a constant."""
    lhs, rhs = _const(lhs), _const(rhs)
    return Claim(text, rel, lambda rec: (lhs(rec), rhs(rec)))


def _suite(text: str, rel, lhs, rhs, min_k: int = 1) -> Claim:
    """A claim ``rel(lhs(records), rhs(records))`` over the record list."""
    lhs, rhs = _const(lhs), _const(rhs)
    return Claim(text, rel, lambda recs: (lhs(recs), rhs(recs)), per_record=False, min_k=min_k)


def _mesh_bound(label: str) -> Claim:
    """Mesh routing caps every processor's messages at ``pr + pc - 2``."""
    return _record(f"{label} max msgs <= pr + pc - 2", op.le,
                   _q(label, "max_msgs"), lambda rec: sum(mesh_shape(rec["K"])) - 2)


_EIGHT_MATRICES = _suite("8 matrices", op.eq, len, 8)
_S2D_VOLUME = _record("s2D volume <= 1D volume", op.le, _q("s2D"), _q("1D"))

#: Table id -> declaration: the one registry of the paper's tables.
TABLES: dict[int, TableSpec] = {
    1: TableSpec("Table I analog (scale={scale}): general matrices", "table1",
                 _PROPERTIES, keys=("name",),
                 claims=(_EIGHT_MATRICES,
                         _suite("smallest row skew < 3", op.lt,
                                lambda recs: min(rec["skew"] for rec in recs), 3),
                         _suite("largest row skew > 10", op.gt,
                                lambda recs: max(rec["skew"] for rec in recs), 10))),
    2: TableSpec(
        "Table II analog (scale={scale}): 1D vs 2D vs s2D", "table1",
        (_li("1D"), _lat("1D"), _vol("1D"), _sp("1D"),
         _li("2D"), _lat("2D"), _ratio("lam_ratio_2d", "2D", "1D"), _sp("2D"),
         _li("s2D"), _ratio("lam_ratio_s2d", "s2D", "1D"), _sp("s2D")),
        (("1D", _1D), ("2D", _2D), ("s2D", _S2D)),
        lambda cfg: cfg.general_ks,
        claims=(
            _S2D_VOLUME,
            # s2D keeps 1D's vector partition, so its messages are 1D's.
            _record("s2D avg msgs == 1D avg msgs", op.eq, _q("s2D", "avg_msgs"),
                    _q("1D", "avg_msgs")),
            _record("s2D max msgs == 1D max msgs", op.eq, _q("s2D", "max_msgs"),
                    _q("1D", "max_msgs")),
            _record("2D avg msgs >= 0.95 x 1D avg msgs", op.ge, _q("2D", "avg_msgs"),
                    _q("1D", "avg_msgs", 0.95)),
            # The speedup headline needs enough processors for volume
            # to matter (the paper shows it from K = 16).
            _suite("s2D Sp >= 1D Sp, geomean at the largest K", op.ge,
                   _top_gm("s2D", "speedup"), _top_gm("1D", "speedup"), min_k=16),
            _suite("s2D Sp >= 2D Sp, geomean at the largest K", op.ge,
                   _top_gm("s2D", "speedup"), _top_gm("2D", "speedup"), min_k=16),
            _suite("s2D Sp >= 0.9 x max(1D, 2D) Sp, geomean at the largest K", op.ge,
                   _top_gm("s2D", "speedup"),
                   lambda recs: 0.9 * max(_gm(_at(recs), "1D", "speedup"),
                                          _gm(_at(recs), "2D", "speedup"))),
            _suite("2D LI <= 1D LI, geomean at the largest K", op.le,
                   _top_gm("2D"), _top_gm("1D")),
            _suite("2D avg msgs >= 1D avg msgs, geomean at the largest K", op.ge,
                   _top_gm("2D", "avg_msgs"), _top_gm("1D", "avg_msgs")),
        ),
    ),
    3: TableSpec(
        "Table III analog (scale={scale}, K={k}): Cartesian 2D-b", "table1",
        (_of("best_q", "best(1D,2D,s2D):Sp", "{:.1f}".format, "speedup"),
         Column("scheme", (lambda rec: rec["best"],), total="-"),
         _li("2D-b"), _lat("2D-b"), _ratio("lam_ratio", "2D-b", "1D"), _sp("2D-b")),
        (("1D", _1D), ("2D", _2D), ("s2D", _S2D), ("2D-b", _2DB)),
        lambda cfg: cfg.general_ks[-1:],
        keys=("name",),
        best_of=("1D", "2D", "s2D"),
        claims=(
            _mesh_bound("2D-b"),
            _record("2D-b max msgs <= 2 isqrt(K)", op.le, _q("2D-b", "max_msgs"),
                    lambda rec: 2 * math.isqrt(rec["K"])),
            # paper: 5 of 8; the synthetic analogs vary with scale
            _suite("2D-b Sp > best(1D, 2D, s2D) Sp on >= 1 matrix", op.ge,
                   lambda recs: sum(rec["2D-b"].speedup > rec["best_q"].speedup
                                    for rec in recs), 1),
        ),
    ),
    4: TableSpec("Table IV analog (scale={scale}): matrices with dense rows", "table4",
                 _PROPERTIES, keys=("name",),
                 claims=(_EIGHT_MATRICES,
                         _record("row skew > 4", op.gt, lambda rec: rec["skew"], 4),
                         _suite("ins2 has a full row: dmax == n", op.eq,
                                lambda recs: {r["name"]: r for r in recs}["ins2"]["dmax"],
                                lambda recs: {r["name"]: r for r in recs}["ins2"]["n"]))),
    # s2D-b shares the cached s2D plan: same nonzero partition, mesh-routed.
    5: TableSpec(
        "Table V analog (scale={scale}): 1D vs s2D vs s2D-b", "table4",
        (_li("1D"), _lat("1D"), _vol("1D"),
         _li("s2D"), _ratio("lam_s2d", "s2D", "1D"),
         _lat("s2D-b"), _ratio("lam_s2db", "s2D-b", "1D")),
        (("1D", _1D), ("s2D", _S2D), ("s2D-b", _S2DB)),
        lambda cfg: cfg.dense_ks,
        claims=(
            _S2D_VOLUME,
            _record("lam_s2d <= 1", op.le, lambda rec: rec["lam_s2d"], 1.0 + 1e-9),
            _record("s2D volume <= s2D-b volume", op.le, _q("s2D"), _q("s2D-b")),
            # Each word takes at most two mesh hops.
            _record("s2D-b volume <= 2 x s2D volume", op.le, _q("s2D-b"),
                    _q("s2D", times=2)),
            _record("s2D-b LI == s2D LI", op.eq, _q("s2D-b", "load_imbalance"),
                    _q("s2D", "load_imbalance")),
            _mesh_bound("s2D-b"),
            _record("s2D max msgs <= K - 1", op.le, _q("s2D", "max_msgs"),
                    lambda rec: rec["K"] - 1),
            # A dense row cannot be split rowwise.
            _suite("1D LI grows from the smallest to the largest K, geomean", op.gt,
                   _top_gm("1D"), lambda recs: _gm(_at(recs, min), "1D")),
            _suite("s2D LI < 1D LI, geomean at the largest K", op.lt,
                   _top_gm("s2D"), _top_gm("1D")),
            _suite("lam_s2d < 0.8, geomean at the largest K", op.lt, _top_ratio("lam_s2d"), 0.8),
        ),
    ),
    # 1D-b and s2D-b both route the cached 1D vector partition (slot 0).
    6: TableSpec(
        "Table VI analog (scale={scale}): bounded-latency schemes", "table4",
        (_li("2D-b"), _vol("2D-b"),
         _li("1D-b"), _ratio("lam_1db", "1D-b", "2D-b"),
         _li("s2D-b"), _ratio("lam_s2db", "s2D-b", "2D-b")),
        (("2D-b", _2DB), ("1D-b", SchemeSpec("1d-boman", 0)), ("s2D-b", _S2DB)),
        lambda cfg: cfg.dense_ks,
        claims=(
            _mesh_bound("s2D-b"),
            _mesh_bound("2D-b"),
            _mesh_bound("1D-b"),
            _suite("lam_s2db < 0.9, geomean at the largest K", op.lt, _top_ratio("lam_s2db"), 0.9),
            _suite("s2D-b LI <= 1.05 x 1D-b LI, geomean at the largest K", op.le,
                   _top_gm("s2D-b"), _top_gm("1D-b", times=1.05)),
        ),
    ),
    7: TableSpec(
        "Table VII analog (scale={scale}): s2D vs s2D-mg", "table4",
        (_li("mg"), _of("mg", "{}:lat", "{:.0f}".format, "avg_msgs"), _vol("mg", "lam_mg"),
         _li("s2D"), _of("s2D", "{}:lat", "{:.0f}".format, "avg_msgs"),
         _ratio("lam_ratio", "s2D", "mg")),
        (("mg", SchemeSpec("medium-grain", 3)), ("s2D", _S2D)),
        lambda cfg: cfg.dense_ks,
        volume_floor=1,
        claims=(
            _suite("mg LI < s2D LI, geomean at the largest K", op.lt,
                   _top_gm("mg"), _top_gm("s2D")),
            _suite("lam_ratio < 1.4, geomean at the largest K", op.lt,
                   _top_ratio("lam_ratio"), 1.4),
        ),
    ),
}

#: The quantitative tables: the ones with a sweep grid.
GRID_TABLES: tuple[int, ...] = tuple(t for t, spec in TABLES.items() if spec.schemes)


def table_grid(
    table: int,
    cfg: ExperimentConfig | None = None,
    ks: tuple[int, ...] | None = None,
) -> SweepGrid:
    """The :class:`SweepGrid` behind quantitative table ``table``, at its
    default K unless ``ks`` is given.  :func:`run_table` and the
    campaign CLI (``repro campaign run --table N``) both run it, so a
    campaign's artifact cache warms a later ``repro table`` run.
    """
    table = int(table)
    if table not in GRID_TABLES:
        raise KeyError(
            f"table {table} has no sweep grid (quantitative tables: {list(GRID_TABLES)})"
        )
    cfg = cfg or ExperimentConfig()
    spec = TABLES[table]
    return SweepGrid(
        matrices=suite_refs(spec.suite, cfg.scale),
        schemes=tuple(scheme for _, scheme in spec.schemes),
        ks=tuple(int(k) for k in (spec.ks(cfg) if ks is None else ks)),
        seeds=(cfg.seed,),
        machine=cfg.machine,
    )


def _properties_cell(ref: MatrixRef) -> dict:
    """One property-table record."""
    sm = ref.suite_entry()
    p = sm.properties()
    return {"name": p.name, "n": p.nrows, "nnz": p.nnz, "davg": p.davg, "dmax": p.dmax,
            "skew": p.row_skew, "application": sm.application}


def _grid_records(spec: TableSpec, grid: SweepGrid, res) -> list[dict]:
    """One record per (matrix, K), in grid order."""
    records = []
    for ref in grid.matrices:
        for k in grid.ks:
            rec = {"name": ref.name, "K": k}
            for label, scheme in spec.schemes:
                rec[label] = res.quality(ref.name, scheme.scheme, k)
            if spec.best_of:
                rec["best"], rec["best_q"] = max(
                    ((label, rec[label]) for label in spec.best_of),
                    key=lambda t: t[1].speedup,
                )
            for key, label, base in (c.ratio for c in spec.columns if c.ratio):
                volume = max(rec[base].total_volume, spec.volume_floor)
                rec[key] = rec[label].total_volume / volume
            records.append(rec)
    return records


def run_table(
    table: int,
    cfg: ExperimentConfig | None = None,
    ks: tuple[int, ...] | None = None,
    *,
    jobs: int = 1,
    cache_dir=None,
) -> TableResult:
    """Regenerate paper table ``table`` (see :data:`TABLES`).

    ``ks`` overrides a quantitative table's default K axis; a property
    table has none, so giving it ``ks`` is a :class:`ConfigError`.  The
    property tables build no partition artifacts and run in-process,
    so they ignore ``jobs`` and ``cache_dir``.
    """
    cfg = cfg or ExperimentConfig()
    spec = TABLES[table]
    if ks is not None and not spec.schemes:
        raise ConfigError(f"table {table} lists matrix properties and has no K axis; got ks={ks}")
    meta: dict = {"jobs": jobs}
    if spec.schemes:
        grid = table_grid(table, cfg, ks)
        res = run_sweep(grid, jobs=jobs, cache_dir=cache_dir)
        records, ks = _grid_records(spec, grid, res), grid.ks
        meta["engines"] = res.engines
    else:
        records = [_properties_cell(ref) for ref in suite_refs(spec.suite, cfg.scale)]
        ks = ()
    rows = [
        [rec[key] for key in spec.keys]
        + [col.fmt(*(get(rec) for get in col.gets)) for col in spec.columns]
        for rec in records
    ]
    for k in ks:
        group = [rec for rec in records if rec["K"] == k]
        if group:  # a K with no records gets no geomean row
            rows.append(["geomean", k][: len(spec.keys)] + [
                col.fmt(*(geomean(get(rec) for rec in group) for get in col.gets))
                if col.total is None else col.total
                for col in spec.columns
            ])
    return TableResult(
        title=spec.title.format(scale=cfg.scale, k=ks[-1] if ks else None),
        headers=[*spec.keys, *(col.header for col in spec.columns)],
        rows=rows,
        records=records,
        meta=meta,
    )


_Cfg = ExperimentConfig | None
_Ks = tuple[int, ...] | None


def run_table1(cfg: _Cfg = None, *, jobs: int = 1, cache_dir=None) -> TableResult:
    """Table I: properties of the general test suite."""
    return run_table(1, cfg, jobs=jobs, cache_dir=cache_dir)


def run_table2(cfg: _Cfg = None, ks: _Ks = None, *, jobs: int = 1, cache_dir=None) -> TableResult:
    """Table II: 1D rowwise vs 2D fine-grain vs s2D (Algorithm 1)."""
    return run_table(2, cfg, ks, jobs=jobs, cache_dir=cache_dir)


def run_table3(
    cfg: _Cfg = None, k: int | None = None, *, jobs: int = 1, cache_dir=None
) -> TableResult:
    """Table III: hypergraph Cartesian 2D-b vs the best unbounded scheme."""
    return run_table(3, cfg, None if k is None else (k,), jobs=jobs, cache_dir=cache_dir)


def run_table4(cfg: _Cfg = None, *, jobs: int = 1, cache_dir=None) -> TableResult:
    """Table IV: properties of the dense-row suite."""
    return run_table(4, cfg, jobs=jobs, cache_dir=cache_dir)


def run_table5(cfg: _Cfg = None, ks: _Ks = None, *, jobs: int = 1, cache_dir=None) -> TableResult:
    """Table V: the dense-row suite under 1D, s2D and s2D-b."""
    return run_table(5, cfg, ks, jobs=jobs, cache_dir=cache_dir)


def run_table6(cfg: _Cfg = None, ks: _Ks = None, *, jobs: int = 1, cache_dir=None) -> TableResult:
    """Table VI: the latency-bounded schemes compared."""
    return run_table(6, cfg, ks, jobs=jobs, cache_dir=cache_dir)


def run_table7(cfg: _Cfg = None, ks: _Ks = None, *, jobs: int = 1, cache_dir=None) -> TableResult:
    """Table VII: the Algorithm-1 s2D vs the medium-grain s2D."""
    return run_table(7, cfg, ks, jobs=jobs, cache_dir=cache_dir)
