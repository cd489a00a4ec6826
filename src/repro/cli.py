"""Command-line interface.

::

    python -m repro.cli suite  --which table1 --scale small
    python -m repro.cli table  --id 2 --scale tiny
    python -m repro.cli table  --id 2 --jobs 4 --cache-dir ~/.cache/s2d-repro
    python -m repro.cli figure1
    python -m repro.cli spy --matrix trdheim --scheme s2d --k 3 --scale tiny
    python -m repro.cli partition --matrix c-big --scheme s2d --k 16
    python -m repro.cli partition --mtx path/to/file.mtx --scheme 2d --k 8
    python -m repro.cli simulate --matrix c-big --scheme s2d --k 16 --profile
    python -m repro.cli simulate --matrix trdheim --k 8 --all
    python -m repro.cli solve --matrix trdheim --scheme s2d --k 8 --solver power
    python -m repro.cli native-info
    python -m repro.cli campaign run --table 2 --dir runs/t2 --jobs 4
    python -m repro.cli campaign resume --table 2 --dir runs/t2 --jobs 4
    python -m repro.cli campaign status --dir runs/t2
    python -m repro.cli check lint
    python -m repro.cli check plan --matrix trdheim --scheme s2d --k 8 --scale tiny
    python -m repro.cli check plan --plan-file saved.plan

The ``table`` subcommand regenerates any of the paper's Tables I–VII
through the sweep supervisor — ``--jobs N`` fans the per-matrix tasks
over up to N worker processes (records bit-identical to serial; a
failed cell is retried, a stuck worker reaped), ``--cache-dir``
persists partitions and evaluated records so a warm rerun is pure
cache reads; after the table it prints one ``claim:`` line per claim
the paper makes about it (``ok``, ``FAIL`` with the failing cells or
value, or ``n/a`` below the K the claim needs) and exits 0 either way;
``partition`` runs one scheme on one matrix and prints the quality
summary the tables are made of; ``simulate`` runs the simulated SpMV
executors themselves (``--all`` batches every registered method over
shared intermediates, ``--profile`` adds per-phase wall-clock timings
and the machine-model cost breakdown); ``solve`` runs an iterative
solver (power iteration, Jacobi, CG) on the compiled SpMV runtime —
the partition is compiled once into a reusable communication plan and
every iteration is a pure array apply.  Every partition, block DM,
s2D flip loop and ``solve`` apply runs on the native C kernels, so a
command that partitions on a host without them prints one error line
and exits 2 before any work.  ``native-info`` reports whether the
native C kernel backend is available and where its build cache lives.

``campaign`` is the crash-safe way to run a table-scale grid: every
cell lifecycle event is committed as a row of the artifact store under
``--dir``, so a ``kill -9`` at any point loses at most the in-flight
cells — ``campaign resume`` replays the rows' failure history, answers
every cell the same store holds at its current address (zero
recompute, bit-identical records) and finishes the rest, and refuses a
directory with no store; ``campaign status`` reports progress and an
ETA from measured per-cell durations.  Failing cells are retried with
exponential backoff; deterministic failures are quarantined and
reported without aborting the rest of the grid.

``check`` runs the static verification layer and exits 1 on any
violation: ``check plan`` proves a compiled plan's index-array IR
well-formed (from a partitioned suite matrix or MatrixMarket file, or
a :func:`~repro.partition.serialize.save_plan` file via
``--plan-file``: one that cannot be opened is a usage error, one that
does not decode exits 1); ``check lint`` runs the project
AST lint over the ``repro`` package.

Every usage error — an unknown suite matrix, no or two matrix
sources, ``--k`` below 1, conflicting options, an unknown option, a
host without the native kernels for a command that partitions —
prints one ``s2d-repro: error:`` line and exits with status 2 before
the command prints anything else.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.engine import ALIASES, PartitionEngine, available_methods
from repro.errors import CampaignError, ConfigError, ReproError, UsageError
from repro.jobs import resolve_jobs
from repro.native import require_kernels
from repro.experiments import (
    GRID_TABLES,
    TABLES,
    ExperimentConfig,
    check_claims,
    figure1_report,
    run_table,
)
from repro.generators.suite import SCALES, table1_suite, table4_suite
from repro.sparse import matrix_properties, read_matrix_market

__all__ = ["main"]

# Historical short spellings plus the engine's canonical method names;
# either resolves through the registry.
_SCHEMES = tuple(sorted(set(ALIASES) | set(available_methods())))


def _find_matrix(name: str, scale: str):
    for sm in table1_suite(scale) + table4_suite(scale):
        if sm.name == name:
            return sm.matrix()
    raise UsageError(f"unknown suite matrix {name!r}; see `suite` subcommand")


def _matrix_source(args, *, plan_file: bool = False):
    """The matrix of exactly one of ``--matrix`` / ``--mtx`` (/
    ``--plan-file`` with ``plan_file``; None for it).  An unreadable
    ``--mtx`` is a :class:`UsageError`: one error line, exit status 2."""
    sources = {"--matrix": args.matrix, "--mtx": args.mtx}
    sources |= {"--plan-file": args.plan_file} if plan_file else {}
    if sum(map(bool, sources.values())) != 1:
        raise UsageError(f"provide exactly one of {' / '.join(sources)}")
    if args.mtx:
        try:
            return read_matrix_market(args.mtx)
        except (OSError, ValueError, ReproError) as exc:
            raise UsageError(f"cannot read --mtx {args.mtx}: {exc}") from None
    return _find_matrix(args.matrix, args.scale) if args.matrix else None


def _engine(a, cfg: ExperimentConfig) -> PartitionEngine:
    return PartitionEngine(a, seed=cfg.seed, machine=cfg.machine)


_TRACE_FORMATS = ("chrome", "json", "tree")


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    """``--trace``/``--trace-format`` for every traceable subcommand."""
    p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a span trace of this run and write it to FILE "
        "('-' prints the human-readable tree); default format is "
        "Chrome trace-event, loadable in Perfetto",
    )
    p.add_argument(
        "--trace-format", choices=_TRACE_FORMATS, default="chrome",
        help="trace file format (chrome = Perfetto timeline, json = "
        "schema-versioned span tree, tree = indented text)",
    )


def _partition_profile(trace) -> str:
    """The `partition --profile` view: partitioner stages folded from
    the run's trace, then its level/bisection and polish counters."""
    c = trace.total_counters()
    lines = [
        obs.stage_table(trace, "partition", labels={"kway": "kway-polish"}),
        f"levels={c.get('partition.levels', 0)} "
        f"bisections={c.get('partition.bisections', 0)}",
    ]
    if "partition.cut_before_kway" in c:
        lines.append(
            f"connectivity-1: {c['partition.cut_before_kway']} -> "
            f"{c['partition.cut_after_kway']} (kway polish)"
        )
    return "\n".join(lines)


def _quality_line(kind: str, q) -> str:
    """The one-line quality summary shared by `partition` and `simulate`."""
    return (
        f"scheme={kind} K={q.nparts} LI={q.format_li()} "
        f"volume={q.total_volume} msgs(avg/max)={q.avg_msgs:.1f}/{q.max_msgs} "
        f"speedup={q.speedup:.1f}"
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="s2d-repro", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_suite = sub.add_parser("suite", help="list a matrix suite's properties")
    p_suite.add_argument("--which", choices=("table1", "table4"), default="table1")
    p_suite.add_argument("--scale", choices=SCALES, default="small")

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("--id", type=int, choices=sorted(TABLES), required=True)
    p_table.add_argument("--scale", choices=SCALES, default=None)
    p_table.add_argument(
        "--jobs", type=int, default=1,
        help="sweep worker processes (1 = serial, 0 = one per core; "
        "records are bit-identical either way)",
    )
    p_table.add_argument(
        "--cache-dir", default=None,
        help="persistent artifact cache directory; a warm rerun of the "
        "same table is pure cache reads",
    )
    _add_trace_args(p_table)

    sub.add_parser("figure1", help="print the Figure 1 worked example")

    sub.add_parser(
        "native-info",
        help="report the native C kernel backend (which every partition "
        "needs): compiler, cache, status",
    )

    p_spy = sub.add_parser("spy", help="ASCII spy plot of a partitioned matrix")
    p_spy.add_argument("--matrix", required=True, help="suite matrix name")
    p_spy.add_argument("--scheme", choices=_SCHEMES, default="s2d")
    p_spy.add_argument("--k", type=int, default=3)
    p_spy.add_argument("--scale", choices=SCALES, default="tiny")
    p_spy.add_argument(
        "--max-dim", type=int, default=80,
        help="refuse to render matrices larger than this many rows/cols",
    )

    p_part = sub.add_parser("partition", help="run one scheme on one matrix")
    p_part.add_argument("--matrix", help="suite matrix name (see `suite`)")
    p_part.add_argument("--mtx", help="path to a MatrixMarket file")
    p_part.add_argument("--scheme", choices=_SCHEMES, default="s2d")
    p_part.add_argument("--k", type=int, default=16)
    p_part.add_argument("--scale", choices=SCALES, default="small")
    p_part.add_argument(
        "--profile", action="store_true",
        help="print per-stage partitioner timings (coarsen/initial/refine/kway)",
    )
    _add_trace_args(p_part)

    p_sim = sub.add_parser("simulate", help="run the simulated SpMV executors")
    p_sim.add_argument("--matrix", help="suite matrix name (see `suite`)")
    p_sim.add_argument("--mtx", help="path to a MatrixMarket file")
    p_sim.add_argument(
        "--scheme", choices=_SCHEMES, default=None,
        help="one scheme to simulate (default s2d); conflicts with --all",
    )
    p_sim.add_argument(
        "--all", action="store_true",
        help="simulate every registered method in one batched pass",
    )
    p_sim.add_argument("--k", type=int, default=16)
    p_sim.add_argument("--scale", choices=SCALES, default="small")
    p_sim.add_argument(
        "--profile", action="store_true",
        help="print per-phase executor timings and the cost breakdown",
    )
    _add_trace_args(p_sim)

    p_solve = sub.add_parser(
        "solve", help="iterative solve on the compiled SpMV runtime"
    )
    p_solve.add_argument("--matrix", help="suite matrix name (see `suite`)")
    p_solve.add_argument("--mtx", help="path to a MatrixMarket file")
    p_solve.add_argument("--scheme", choices=_SCHEMES, default="s2d")
    p_solve.add_argument("--k", type=int, default=16)
    p_solve.add_argument("--scale", choices=SCALES, default="small")
    p_solve.add_argument(
        "--solver", choices=("power", "jacobi", "cg"), default="power",
        help="power iteration (default), Jacobi, or conjugate gradients",
    )
    p_solve.add_argument("--iters", type=int, default=50)
    p_solve.add_argument("--tol", type=float, default=1e-8)
    _add_trace_args(p_solve)

    p_camp = sub.add_parser(
        "campaign",
        help="crash-safe resumable table runs: run / resume / status",
    )
    p_camp.add_argument(
        "action", choices=("run", "resume", "status"),
        help="run starts a fresh campaign (refuses one in progress), "
        "resume continues one after a crash or kill, status reports "
        "progress + ETA from its lifecycle rows alone",
    )
    p_camp.add_argument(
        "--dir", required=True, dest="campaign_dir",
        help="campaign directory (artifact cache with lifecycle rows)",
    )
    p_camp.add_argument(
        "--table", type=int, choices=GRID_TABLES, default=GRID_TABLES[0],
        help="which quantitative table's grid to run (default %(default)s)",
    )
    p_camp.add_argument("--scale", choices=SCALES, default=None)
    p_camp.add_argument(
        "--jobs", type=int, default=1,
        help="concurrent worker processes (1 = serial, 0 = one per core)",
    )
    p_camp.add_argument(
        "--max-attempts", type=int, default=3,
        help="per-cell attempt budget before quarantine",
    )
    p_camp.add_argument(
        "--watchdog", type=float, default=300.0, metavar="SECONDS",
        help="per-cell watchdog: a worker silent this long is reaped, "
        "the cell marked timed out and retried on a fresh worker",
    )
    p_camp.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )
    _add_trace_args(p_camp)

    p_stats = sub.add_parser(
        "stats",
        help="one report over every counter store: engine memo caches, "
        "artifact caches, native build cache",
    )
    p_stats.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_stats.add_argument(
        "--no-native", action="store_true",
        help="skip the native build-cache probe (which may build the library)",
    )
    p_stats.add_argument(
        "--matrix", default=None,
        help="optional workload: plan+compile this suite matrix first so "
        "the counters have something to show",
    )
    p_stats.add_argument("--scheme", choices=_SCHEMES, default="s2d")
    p_stats.add_argument("--k", type=int, default=4)
    p_stats.add_argument("--scale", choices=SCALES, default="tiny")
    p_stats.add_argument(
        "--cache-dir", default=None,
        help="exercise a persistent artifact cache at this directory",
    )

    p_check = sub.add_parser(
        "check", help="static verification: plan IR and project lint"
    )
    p_check.add_argument(
        "what", choices=("plan", "lint"),
        help="which static layer to run (each exits 1 on violations)",
    )
    p_check.add_argument(
        "--plan-file", default=None,
        help="compiled plan written by save_plan, to verify (check plan)",
    )
    p_check.add_argument("--matrix", help="suite matrix name (check plan)")
    p_check.add_argument("--mtx", help="path to a MatrixMarket file (check plan)")
    p_check.add_argument("--scheme", choices=_SCHEMES, default="s2d")
    p_check.add_argument("--k", type=int, default=4)
    p_check.add_argument("--scale", choices=SCALES, default="tiny")
    p_check.add_argument(
        "--path", default=None,
        help="package directory to lint (default: the installed repro package)",
    )

    args = ap.parse_args(argv)

    try:
        trace_path = getattr(args, "trace", None)
        if not (trace_path or getattr(args, "profile", False)):
            return _dispatch(args)
        # Traced run: collect one span tree around the whole dispatch;
        # `--profile` tables are folds of it and `--trace` exports it.
        # The command's numeric outputs are unaffected (instrumentation
        # never touches numeric state).
        with obs.tracing() as tr:
            rc = _dispatch(args)
        if not trace_path:
            return rc
        if trace_path == "-":
            print(obs.tree_str(tr))
        else:
            obs.write_trace(tr, trace_path, fmt=args.trace_format)
            print(f"trace: {trace_path} ({args.trace_format})")
        return rc
    except (CampaignError, ConfigError, UsageError) as exc:
        # Malformed command-level input (e.g. --jobs -2) or a refused
        # configuration (e.g. `campaign run` over a campaign that
        # already has progress, or `campaign resume` over another
        # table's campaign): one clean line instead of a traceback.
        print(f"s2d-repro: error: {exc}", file=sys.stderr)
        return 2


def _partitions(args) -> bool:
    """Whether the command partitions a matrix, which only the native
    kernels do."""
    if args.cmd == "campaign":
        return args.action != "status"
    if args.cmd == "check":
        return args.what == "plan" and args.plan_file is None
    return args.cmd in ("table", "spy", "partition", "simulate", "solve")


def _dispatch(args) -> int:
    if getattr(args, "k", 1) < 1:
        raise UsageError(f"--k must be at least 1, got {args.k}")
    if _partitions(args):
        # A host without the kernels is refused before any work.
        require_kernels()
    if args.cmd == "suite":
        suite = table1_suite(args.scale) if args.which == "table1" else table4_suite(args.scale)
        for sm in suite:
            print(sm.properties().table_row())
        return 0

    if args.cmd == "table":
        cfg = ExperimentConfig(scale=args.scale) if args.scale else ExperimentConfig()
        jobs = resolve_jobs(args.jobs, what="--jobs")
        result = run_table(args.id, cfg, jobs=jobs, cache_dir=args.cache_dir)
        print(result.text)
        # A failed claim is a result of the run, not a usage error: exit 0.
        for verdict in check_claims(args.id, result):
            print(f"claim: {verdict}")
        return 0

    if args.cmd == "figure1":
        print(figure1_report())
        return 0

    if args.cmd == "native-info":
        from repro.native import native_status

        status = native_status()
        print(f"available={status['available']}")
        print(f"compiler={status['compiler'] or '(none found)'}")
        print(f"cache_dir={status['cache_dir']}")
        print(f"so_path={status['so_path'] or '(not built)'}")
        print(f"built_this_process={status['built_this_process']}")
        if status["reason"]:
            print(f"reason={status['reason']}")
        print(
            "partitioning="
            + ("native" if status["available"] else "unavailable (needs the native kernels)")
        )
        return 0

    if args.cmd == "campaign":
        return _campaign_cmd(args)

    if args.cmd == "stats":
        return _stats_cmd(args)

    if args.cmd == "check":
        return _check_cmd(args)

    if args.cmd == "spy":
        from repro.sparse import spy_string

        a = _find_matrix(args.matrix, args.scale)
        if max(a.shape) > args.max_dim:
            raise UsageError(
                f"matrix is {a.shape}; use --max-dim to force rendering"
            )
        cfg = ExperimentConfig(scale=args.scale)
        p = _engine(a, cfg).plan(args.scheme, args.k, config=cfg.partitioner()).partition
        print(
            spy_string(p.matrix, p.nnz_part, p.vectors.x_part, p.vectors.y_part)
        )
        return 0

    if args.cmd == "partition":
        cfg = ExperimentConfig(scale=args.scale)
        a = _matrix_source(args)
        props = matrix_properties(a, name=args.matrix or args.mtx)
        print(props.table_row())
        plan = _engine(a, cfg).plan(args.scheme, args.k, config=cfg.partitioner())
        if args.profile:
            print(_partition_profile(obs.active_trace()))
        q = plan.quality()
        print(_quality_line(plan.kind, q))
        return 0

    if args.cmd == "simulate":
        from repro.engine import available_methods as _methods

        if args.all and args.scheme is not None:
            raise UsageError("--scheme conflicts with --all")
        cfg = ExperimentConfig(scale=args.scale)
        a = _matrix_source(args)
        eng = _engine(a, cfg)
        methods = _methods() if args.all else [args.scheme or "s2d"]
        for method in methods:
            plan = eng.plan(method, args.k, config=cfg.partitioner())
            tr = obs.active_trace()  # open under --profile or --trace
            first = len(tr.spans) if tr is not None else 0
            run = eng.run(plan)
            q = plan.quality()
            print(_quality_line(plan.kind, q))
            if args.profile:
                # This method's executor phases: the spans added since.
                phases = obs.Trace(spans=tr.spans[first:])
                print(obs.stage_table(phases, "simulate", title="phase"))
                for entry in run.breakdown(cfg.machine):
                    print(
                        f"  {entry['name']:<15} compute={entry['compute']:<10g} "
                        f"bandwidth={entry['bandwidth']:<10g} "
                        f"latency={entry['latency']:<10g}"
                    )
        return 0

    if args.cmd == "solve":
        import numpy as np

        from repro.solvers import conjugate_gradient, jacobi, power_iteration

        cfg = ExperimentConfig(scale=args.scale)
        a = _matrix_source(args)
        if a.shape[0] != a.shape[1]:
            raise UsageError(f"solve needs a square matrix, got {a.shape}")
        eng = _engine(a, cfg)
        plan = eng.plan(args.scheme, args.k, config=cfg.partitioner())
        cplan = eng.compiled_plan(plan)
        common = dict(
            iters=args.iters, tol=args.tol, machine=cfg.machine,
            plan=cplan,
        )
        if args.solver == "power":
            res = power_iteration(plan.partition, **common)
        else:
            b = np.ones(a.shape[0])
            fn = jacobi if args.solver == "jacobi" else conjugate_gradient
            res = fn(plan.partition, b, **common)
        print(
            f"scheme={plan.kind} K={plan.partition.nparts} "
            f"solver={args.solver} executor={cplan.executor} backend=native"
        )
        print(
            f"iterations={res.iterations} converged={res.converged} "
            f"residual={res.residual:.3e}"
        )
        print(
            f"comm: words={res.comm_words} msgs={res.comm_msgs} "
            f"sim_time={res.sim_time:.0f}"
        )
        print(f"per-iteration plan: words={cplan.words} msgs={cplan.msgs}")
        return 0

    return 1  # pragma: no cover


def _campaign_cmd(args) -> int:
    """The ``campaign`` subcommand: run / resume / status."""
    from repro.experiments import table_grid
    from repro.sweep import Campaign, RetryPolicy, campaign_status

    if args.action == "status":
        st = campaign_status(args.campaign_dir)
        if st.total == 0:
            print(f"no campaign under {args.campaign_dir}")
            return 1
        print(st.line())
        return 0

    cfg = ExperimentConfig(scale=args.scale) if args.scale else ExperimentConfig()
    grid = table_grid(args.table, cfg)
    progress = None
    if not args.quiet:
        progress = lambda st: print(st.line(), flush=True)  # noqa: E731
    campaign = Campaign(
        grid,
        args.campaign_dir,
        jobs=resolve_jobs(args.jobs, what="--jobs"),
        retry=RetryPolicy(max_attempts=args.max_attempts),
        watchdog_s=args.watchdog,
        progress=progress,
    )
    result = campaign.run() if args.action == "run" else campaign.resume()
    counters = result.counters
    print(
        f"campaign {'complete' if result.complete else 'INCOMPLETE'}: "
        f"{len(result.records)}/{len(campaign.cell_uids)} cells "
        f"(resumed={int(counters['resumed_cells'])} "
        f"executed={int(counters['cells_executed'])} "
        f"retries={int(counters['retries'])} "
        f"quarantined={int(counters['quarantined'])})"
    )
    for fc in result.failed_cells:
        print(f"  failed: {fc.summary()}")
    return 0 if result.complete else 1


def _stats_cmd(args) -> int:
    """The ``stats`` subcommand: one report over every counter store."""
    import json

    from repro.obs import gather_stats, stats_text

    if args.matrix:
        # Optional workload so a cold process has counters to show.
        cfg = ExperimentConfig(scale=args.scale)
        a = _find_matrix(args.matrix, args.scale)
        artifacts = None
        if args.cache_dir is not None:
            from repro.sweep.cache import ArtifactCache

            artifacts = ArtifactCache(args.cache_dir)
        eng = PartitionEngine(
            a, seed=cfg.seed, machine=cfg.machine, artifacts=artifacts
        )
        plan = eng.plan(args.scheme, args.k, config=cfg.partitioner())
        eng.compiled_plan(plan)
    report = gather_stats(native=not args.no_native)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(stats_text(report))
    return 0


def _check_cmd(args) -> int:
    """The ``check`` subcommand: 0 when every property holds, 1 otherwise."""
    if args.what == "lint":
        from repro.verify import run_lint

        violations = run_lint(args.path)
        for v in violations:
            print(v)
        print(f"lint: {len(violations)} violation(s)")
        return 1 if violations else 0

    # check plan
    from repro.errors import SerializationError
    from repro.verify import check_plan

    a = _matrix_source(args, plan_file=True)
    if a is None:
        from repro.partition.serialize import load_plan

        try:
            plan = load_plan(args.plan_file, verify=False)
        except OSError as exc:
            raise UsageError(f"cannot read --plan-file {args.plan_file}: {exc}") from None
        except SerializationError as exc:
            print(f"s2d-repro: error: {exc}", file=sys.stderr)
            return 1
        report = check_plan(plan)
        print(report.summary())
        return 0 if report.ok else 1

    cfg = ExperimentConfig(scale=args.scale)
    eng = _engine(a, cfg)
    plan = eng.plan(args.scheme, args.k, config=cfg.partitioner())
    report = check_plan(eng.compiled_plan(plan))
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
