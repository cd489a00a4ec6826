"""The unified tracing/metrics layer (``repro.obs``).

Contract under test:

- ``span`` builds a properly nested tree in the ambient trace, restores
  the open-span stack on exceptions (labelling the failed span with
  ``error=<type>``), and is a pure no-op when no ``tracing`` block is
  open — so instrumented code never branches on whether it is traced;
- the JSON export round-trips exactly and refuses unknown schema
  versions; the Chrome export maps ``worker`` attrs to ``tid`` rows and
  puts a ``pid``-labelled span's subtree on that process row;
- the profiling adapters (``repro.hypergraph.profiling``,
  ``repro.simulate.profiling``) keep their byte-compatible public APIs
  while feeding the same tracer core;
- ``graft`` attaches span trees and counters collected elsewhere (a
  sweep worker's trace) exactly where ``span``/``add`` would have put
  them;
- ``gather_stats`` aggregates engine memo and artifact-cache counters.
"""

import json

import pytest

from repro import obs
from repro.hypergraph import profiling as hprof
from repro.obs import (
    AmbientCollector,
    Span,
    Trace,
    from_json,
    to_chrome,
    to_json,
    tree_str,
    write_trace,
)
from repro.simulate import profiling as sprof


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
    slot = AmbientCollector(list)
    assert slot.active() is None
    with slot.collect() as a:
        assert slot.active() is a
        with pytest.raises(ValueError):
            with slot.collect(["inner"]) as b:
                assert slot.active() is b
                raise ValueError("boom")
        assert slot.active() is a
    assert slot.active() is None
    with pytest.raises(ValueError):
        AmbientCollector().collect().__enter__()  # no value, no factory


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
# Profiling adapters over the tracer core
# ----------------------------------------------------------------------


def test_partition_profile_api_unchanged():
    with hprof.collect() as prof:
        active = hprof.active_profile()
        assert active is prof
        with prof.stage("coarsen"):
            pass
        prof.add("refine", 0.25)
    assert hprof.active_profile() is None
    d = prof.as_dict()
    assert set(d) >= {"coarsen_s", "refine_s"} and d["refine_s"] == 0.25
    assert "coarsen" in prof.stage_table()


def test_profiling_adapters_emit_spans():
    with obs.tracing() as tr:
        with hprof.collect() as prof:
            with prof.stage("coarsen"):
                pass
        with sprof.collect() as sp_prof:
            with sprof.stage("expand"):
                sprof.note_run()
    names = {sp.name for sp in tr.walk()}
    assert "partition.coarsen" in names
    assert "simulate.expand" in names
    assert prof.coarsen_s >= 0.0
    assert sp_prof.runs == 1
    assert tr.total_counters().get("simulate.runs") == 1


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


def test_simulate_stage_noop_without_collectors():
    # Neither a profile nor a trace open: stage() must not blow up.
    with sprof.stage("expand"):
        pass


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
    try:
        eng.plan("1d", 2)
        eng.plan("1d", 2)  # memo hit
        report = obs.gather_stats(engines=[eng], caches=[], native=False)
    finally:
        eng.clear_cache()
    assert report["engine_totals"]["hits"] >= 1
    assert report["engine_totals"]["misses"] >= 1
    assert report["native"] is None
    text = obs.stats_text(report)
    assert "engine" in text
