"""The unified tracing/metrics layer (``repro.obs``).

Contract under test:

- ``span`` builds a properly nested tree in the ambient trace, restores
  the open-span stack on exceptions (labelling the failed span with
  ``error=<type>``), and is a pure no-op when no ``tracing`` block is
  open — so instrumented code never branches on whether it is traced;
- the JSON export round-trips exactly and refuses unknown schema
  versions; the Chrome export maps ``worker`` attrs to ``tid`` rows and
  puts a ``pid``-labelled span's subtree on that process row;
- the partitioner and the simulators emit their stage spans and
  counters straight into the trace, and ``stage_table`` folds them into
  the ``--profile`` rows (``native.*`` time on a row of its own);
- every program span name and counter the end-to-end benchmark's layer
  fold (``benchmarks/e2e/layers.py``) keys on is still emitted;
- ``graft`` attaches span trees and counters collected elsewhere (a
  sweep worker's trace) exactly where ``span``/``add`` would have put
  them;
- ``gather_stats`` aggregates engine memo and artifact-cache counters.
"""

import json

import pytest

from repro import obs
from repro.obs import (
    Span,
    Trace,
    from_json,
    stage_table,
    stage_times,
    stage_wall,
    to_chrome,
    to_json,
    tree_str,
    write_trace,
)


# ----------------------------------------------------------------------
# Span tree mechanics
# ----------------------------------------------------------------------


def test_span_nesting_builds_tree():
    with obs.tracing() as tr:
        with obs.span("outer", k=4) as outer:
            obs.add("hits", 2)
            with obs.span("inner") as inner:
                obs.add("hits")
            assert obs.current_span() is outer
        obs.event("marker", note="done")
    assert [sp.name for sp in tr.spans] == ["outer", "marker"]
    root = tr.spans[0]
    assert root.attrs == {"k": 4}
    assert [c.name for c in root.children] == ["inner"]
    assert root.counters == {"hits": 2}
    assert root.children[0].counters == {"hits": 1}
    assert root.dur >= root.children[0].dur >= 0.0
    assert tr.total_counters() == {"hits": 3}
    assert [sp.name for sp in tr.walk()] == ["outer", "inner", "marker"]


def test_span_restores_stack_on_exception():
    with obs.tracing() as tr:
        with obs.span("parent"):
            with pytest.raises(RuntimeError):
                with obs.span("child"):
                    raise RuntimeError("boom")
            # Stack restored: new spans nest under parent, not the
            # failed child.
            with obs.span("sibling"):
                pass
        assert obs.current_span() is None
    child, sibling = tr.spans[0].children
    assert child.attrs["error"] == "RuntimeError"
    assert child.dur > 0.0
    assert sibling.name == "sibling" and "error" not in sibling.attrs


def test_no_trace_is_a_noop():
    assert obs.active_trace() is None
    with obs.span("orphan") as sp:
        assert sp is None
        obs.add("ignored")
        obs.event("ignored")
        obs.record("ignored", 0.0, 1.0)
    assert obs.active_trace() is None and obs.current_span() is None


def test_tracing_nests_and_restores():
    with obs.tracing() as outer:
        with obs.span("a"):
            with obs.tracing() as inner:
                assert obs.active_trace() is inner
                # The inner collector starts a fresh stack: spans root
                # at the inner trace, invisible to the outer tree.
                with obs.span("b"):
                    pass
            assert obs.active_trace() is outer
    assert [sp.name for sp in outer.walk()] == ["a"]
    assert [sp.name for sp in inner.walk()] == ["b"]


def test_add_between_spans_hits_trace_counters():
    with obs.tracing() as tr:
        obs.add("global", 5)
    assert tr.counters == {"global": 5}


def test_record_appends_measured_span():
    with obs.tracing() as tr:
        obs.record("parallel.superstep", 12.5, 0.25, worker=1, step=0)
    (sp,) = tr.spans
    assert (sp.t0, sp.dur) == (12.5, 0.25)
    assert sp.attrs == {"worker": 1, "step": 0}


def test_graft_attaches_foreign_spans_and_counters():
    with obs.tracing() as inner:
        with obs.span("sweep.task"):
            obs.add("hits", 2)
        obs.add("loose", 1)
    with obs.tracing() as tr:
        with obs.span("table") as table:
            obs.graft(inner.spans, inner.counters)
        obs.graft(inner.spans, inner.counters)  # between spans: roots
    assert [c.name for c in table.children] == ["sweep.task"]
    assert table.counters == {"loose": 1}
    assert [sp.name for sp in tr.spans] == ["table", "sweep.task"]
    assert tr.counters == {"loose": 1}
    assert tr.total_counters() == {"hits": 4, "loose": 2}
    obs.graft(inner.spans, inner.counters)  # no trace open: no-op


def test_ambient_collector_save_restore():
    """Nested ``tracing`` blocks install their trace and restore the
    outer one, with its open-span stack, on exit — exception or not."""
    assert obs.active_trace() is None
    given = Trace()
    with obs.tracing() as outer:
        with obs.span("a") as a:
            with pytest.raises(ValueError):
                with obs.tracing(given) as inner:
                    assert inner is given and obs.active_trace() is given
                    assert obs.current_span() is None
                    with obs.span("b"):
                        raise ValueError("boom")
            assert obs.active_trace() is outer
            assert obs.current_span() is a
    assert obs.active_trace() is None and obs.current_span() is None
    assert [sp.name for sp in outer.walk()] == ["a"]
    assert [sp.name for sp in given.spans] == ["b"]
    assert given.spans[0].attrs["error"] == "ValueError"


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _sample_trace() -> Trace:
    tr = Trace(t0=100.0, counters={"words": 7})
    root = Span("solver.cg", t0=100.5, dur=2.0, attrs={"k": 4})
    root.children.append(
        Span("solver.matvec", t0=101.0, dur=0.5, counters={"flops": 3.0})
    )
    tr.spans = [root, Span("native.cache_hit", t0=102.0, attrs={"worker": 2})]
    return tr


def test_json_round_trip_exact():
    doc = to_json(_sample_trace())
    rebuilt = from_json(json.loads(json.dumps(doc)))
    assert to_json(rebuilt) == doc
    assert doc["schema"] == obs.SCHEMA_VERSION


def test_json_rejects_unknown_schema():
    doc = to_json(_sample_trace())
    doc["schema"] = 999
    with pytest.raises(ValueError, match="schema"):
        from_json(doc)
    with pytest.raises(ValueError):
        from_json({})


def test_chrome_export_shape():
    doc = to_chrome(_sample_trace())
    assert doc["displayTimeUnit"] == "ms"
    by_name = {ev["name"]: ev for ev in doc["traceEvents"]}
    root = by_name["solver.cg"]
    assert root["ph"] == "X"
    assert root["ts"] == pytest.approx(0.5e6)  # µs from trace t0
    assert root["dur"] == pytest.approx(2.0e6)
    assert by_name["solver.matvec"]["args"] == {"flops": 3.0}
    marker = by_name["native.cache_hit"]
    assert marker["ph"] == "i"  # zero-duration span → instant event
    assert marker["tid"] == 2  # worker attr → timeline row


def test_chrome_pid_labels_whole_subtree():
    task = Span("sweep.task", t0=1.0, dur=1.0, attrs={"pid": 77})
    task.children.append(Span("sweep.cell", t0=1.1, dur=0.5))
    tr = Trace(t0=0.0, spans=[Span("table", t0=0.5, dur=2.0, children=[task])])
    pids = {ev["name"]: ev["pid"] for ev in to_chrome(tr)["traceEvents"]}
    assert pids == {"table": 0, "sweep.task": 77, "sweep.cell": 77}


def test_write_trace_formats(tmp_path):
    tr = _sample_trace()
    out = tmp_path / "t.json"
    write_trace(tr, out, fmt="json")
    assert to_json(from_json(json.loads(out.read_text()))) == to_json(tr)
    write_trace(tr, out, fmt="chrome")
    assert "traceEvents" in json.loads(out.read_text())
    write_trace(tr, out, fmt="tree")
    assert "solver.cg" in out.read_text()
    with pytest.raises(ValueError, match="unknown trace format"):
        write_trace(tr, out, fmt="xml")


def test_tree_str_renders_counters():
    text = tree_str(_sample_trace())
    assert "solver.cg" in text and "  solver.matvec" in text
    assert "counters:" in text and "words=7" in text


# ----------------------------------------------------------------------
# Stage spans, counters and the --profile fold
# ----------------------------------------------------------------------


def test_stage_table_charges_native_to_its_own_row():
    """A kernel build inside the first ``partition.initial`` is charged
    to a ``native`` row, not to ``initial``."""
    build = Span("native.build", t0=1.1, dur=1.4)
    initial = Span("partition.initial", t0=1.0, dur=1.5, children=[build])
    coarsen = Span(
        "partition.coarsen", t0=0.0, dur=0.5,
        children=[Span("partition.coarsen.match", t0=0.1, dur=0.2)],
    )
    plan = Span("engine.plan", t0=0.0, dur=3.0, children=[coarsen, initial])
    tr = Trace(t0=0.0, spans=[plan, Span("simulate.verify", t0=3.0, dur=0.1)])
    times = stage_times(tr, "partition")
    assert list(times) == ["coarsen", "initial", "native"]
    assert times["coarsen"] == 0.5  # the match child folds in
    assert times["initial"] == pytest.approx(0.1)
    assert times["native"] == 1.4
    text = stage_table(tr, "partition", labels={"coarsen": "coarsen-x"})
    assert text.splitlines()[0].startswith("stage")
    assert "coarsen-x" in text and "native" in text
    assert text.splitlines()[-1].split() == ["total", "2.0000"]
    assert stage_times(tr, "simulate") == {"verify": 0.1}


def test_stage_table_wall_is_the_union_of_overlapping_stages():
    """Stages that overlap in time (subtrees of the native partitioner
    on two threads) count in full in ``total``; ``wall`` counts the
    time any stage ran, once."""
    plan = Span(
        "engine.plan", t0=0.0, dur=4.0,
        children=[
            Span("partition.coarsen", t0=0.0, dur=1.0),
            Span("partition.initial", t0=1.0, dur=2.0),  # one thread
            Span("partition.refine", t0=1.5, dur=1.0),  # the other, inside it
            Span("partition.refine", t0=2.5, dur=1.0),  # overlapping its end
            Span("partition.kway", t0=3.75, dur=0.25),  # after a gap
        ],
    )
    tr = Trace(t0=0.0, spans=[plan])
    assert stage_times(tr, "partition") == {
        "coarsen": 1.0, "initial": 2.0, "refine": 2.0, "kway": 0.25,
    }
    assert stage_wall(tr, "partition") == 3.75
    lines = stage_table(tr, "partition").splitlines()
    assert lines[-2].split() == ["wall", "3.7500"]
    assert lines[-1].split() == ["total", "5.2500"]
    # Without overlap the two agree.
    serial = Trace(t0=0.0, spans=[Span("partition.coarsen", t0=0.0, dur=1.0),
                                  Span("partition.refine", t0=2.0, dur=0.5)])
    assert stage_wall(serial, "partition") == sum(stage_times(serial, "partition").values())


def test_profiling_adapters_emit_spans(medium_square, rng):
    """``partition_kway`` and the simulators write their stages, the
    bisection/level counts and ``simulate.runs`` into the open trace."""
    from repro.hypergraph import PartitionConfig, column_net_model, partition_kway
    from repro.simulate import run_single_phase
    from tests.conftest import random_s2d_partition

    hg = column_net_model(medium_square)
    p = random_s2d_partition(rng, medium_square, 4)
    with obs.tracing() as tr:
        partition_kway(hg, 4, PartitionConfig(seed=1))
        run_single_phase(p)
    names = {sp.name for sp in tr.walk()}
    assert {
        "partition.coarsen", "partition.initial", "partition.refine",
        "partition.kway", "simulate.precompute", "simulate.exchange",
        "simulate.compute", "simulate.verify",
    } <= names
    counters = tr.total_counters()
    assert counters["partition.bisections"] == 3  # K=4: root + two halves
    assert counters["partition.levels"] >= 0
    assert counters["simulate.runs"] == 1
    (kway,) = [sp for sp in tr.walk() if sp.name == "partition.kway"]
    assert set(kway.counters) == {
        "partition.cut_before_kway", "partition.cut_after_kway"
    }


def test_coarsening_emits_match_and_contract_spans():
    """Every coarsening level opens one ``partition.coarsen.match`` and
    one ``partition.coarsen.contract`` span inside ``partition.coarsen``."""
    from repro.generators.mesh import poisson2d
    from repro.hypergraph import PartitionConfig, column_net_model, partition_kway

    hg = column_net_model(poisson2d(20))
    with obs.tracing() as tr:
        partition_kway(hg, 4, PartitionConfig(seed=1, coarsen_to=40))
    pair = ["partition.coarsen.match", "partition.coarsen.contract"]
    stages = [
        [c.name for c in sp.children] for sp in tr.walk() if sp.name == "partition.coarsen"
    ]
    assert any(stages)
    assert all(names == pair * (len(names) // 2) for names in stages)


def test_simulate_stage_noop_without_collectors(medium_square, rng):
    """Untraced runs record nothing and equal traced runs bit for bit."""
    from repro.core import make_s2d_bounded
    from repro.simulate import run_s2d_bounded, run_single_phase
    from tests.conftest import random_s2d_partition

    p = random_s2d_partition(rng, medium_square, 4)
    pb = make_s2d_bounded(p)
    plain = [run_single_phase(p), run_s2d_bounded(pb)]
    assert obs.active_trace() is None and obs.current_span() is None
    with obs.tracing():
        traced = [run_single_phase(p), run_s2d_bounded(pb)]
    for a, b in zip(plain, traced):
        assert a.y.tobytes() == b.y.tobytes()
        assert a.ledger.as_dict() == b.ledger.as_dict()


def test_traced_s2d_plan_counts_dm_blocks_and_flip_rounds(medium_square):
    """A traced s2D-heuristic plan reports how many blocks went through
    DM and how many greedy rounds Algorithm 1 ran; the untraced plan is
    the same partition."""
    import numpy as np

    from repro.engine import PartitionEngine

    with obs.tracing() as tr:
        traced = PartitionEngine(medium_square, seed=3).plan("s2d-heuristic", 4).partition
    counters = tr.total_counters()
    assert counters["dm.blocks"] == len(traced.meta["choices"]) > 0
    assert counters["s2d.flip_rounds"] == traced.meta["rounds"] >= 1
    plain = PartitionEngine(medium_square, seed=3).plan("s2d-heuristic", 4).partition
    assert plain.nnz_part.tobytes() == traced.nnz_part.tobytes()
    assert plain.meta["rounds"] == traced.meta["rounds"]
    assert np.array_equal(plain.meta["chosen"], traced.meta["chosen"])


# ----------------------------------------------------------------------
# Stats aggregation
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_partition():
    from repro.generators.mesh import knn_mesh
    from repro.hypergraph import PartitionConfig
    from repro.partition import partition_1d_rowwise

    mesh = knn_mesh(200, 6, dim=2, seed=3)
    return partition_1d_rowwise(mesh, 4, PartitionConfig(seed=5, ninitial=2))



def test_gather_stats_aggregates_engines(small_partition):
    from repro.engine import PartitionEngine

    eng = PartitionEngine(small_partition.matrix)
    eng.plan("1d", 2)
    eng.plan("1d", 2)  # memo hit
    report = obs.gather_stats(engines=[eng], caches=[], native=False)
    assert report["engine_totals"]["hits"] >= 1
    assert report["engine_totals"]["misses"] >= 1
    assert report["native"] is None
    text = obs.stats_text(report)
    assert "engine" in text


# ----------------------------------------------------------------------
# The end-to-end benchmark's layer fold keys on program span names
# ----------------------------------------------------------------------


def _bench_layers():
    """``benchmarks/e2e/layers.py``, executed from its source text so
    the benchmark directory is only read (no import, no bytecode)."""
    import pathlib
    import types

    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks/e2e/layers.py"
    module = types.ModuleType("bench_e2e_layers")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def test_bench_layer_span_names_are_emitted():
    """Every program span the benchmark folds by name (``LAYER_OF`` and
    ``COUNTS`` outside its own ``bench.*`` wrappers) and both engine
    cache counters appear in a traced tiny Table II plus a short traced
    CG solve on a compiled plan — a rename fails here instead of
    silently zeroing a per-layer metric."""
    import numpy as np
    import scipy.sparse as sp

    from repro.engine import PartitionEngine
    from repro.experiments import ExperimentConfig
    from repro.experiments.tables import run_table2
    from repro.generators.mesh import poisson2d
    from repro.solvers import conjugate_gradient

    layers = _bench_layers()
    wanted = {
        name
        for name in (*layers.LAYER_OF, *layers.COUNTS.values())
        if not name.startswith("bench.")
    }
    with obs.tracing() as tr:
        run_table2(ExperimentConfig(scale="tiny"))
        grid = abs(poisson2d(12, seed=2))
        a = (grid + grid.T + 20.0 * sp.eye(grid.shape[0])).tocoo()  # SPD
        eng = PartitionEngine(a, seed=1)
        plan = eng.plan("s2d-heuristic", 4)
        conjugate_gradient(
            plan.partition, np.ones(a.shape[0]), iters=3, plan=eng.compiled_plan(plan)
        )
    emitted = {sp.name for sp in tr.walk()}
    assert wanted - emitted == set()
    assert {"engine.cache_hits", "engine.cache_misses"} <= set(tr.total_counters())
