"""Tests for the observability subsystem (repro/obs).

The telemetry view over a finished solve (``solve_metrics``), the
ready-depth reconstruction, the exporters, and the CLI dump path.
"""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.core import DCOptions, dc_eigh, graph_template_cache
from repro.core.session import SolverSession
from repro.matrices import test_matrix as make_test_matrix
from repro.obs import (SolveMetrics, chrome_trace, collapsed_stacks,
                       merge_spans_from_trace, prometheus_text, solve_metrics,
                       telemetry_block, telemetry_summary, write_jsonl)
from repro.obs.metrics import ready_depth
from repro.runtime import TaskGraph, Trace, TraceEvent
from repro.runtime.task import INOUT, INPUT, OUTPUT, DataHandle


@pytest.fixture(scope="module")
def problem():
    return make_test_matrix(4, 120, seed=0)


def _solve(d, e, **kw):
    return dc_eigh(d, e, options=DCOptions(minpart=32), full_result=True,
                   **kw)


# -- the view ---------------------------------------------------------------

@pytest.mark.parametrize("backend", ["sequential", "threads"])
def test_results_bitwise_identical_with_telemetry(problem, backend):
    # The view is read after the solve: it cannot touch the numbers.
    d, e = problem
    kw = {"n_workers": 3} if backend == "threads" else {}
    base = _solve(d, e, backend=backend, **kw)
    inst = _solve(d, e, backend=backend, **kw)
    solve_metrics(inst)
    assert np.array_equal(base.lam, inst.lam)
    assert np.array_equal(base.V, inst.V)


def test_telemetry_excluded_from_options_identity():
    # No option turns telemetry on: DCOptions carries no sink at all.
    names = [f.name for f in dataclasses.fields(DCOptions)]
    assert len(names) == 12 and "telemetry" not in names


def test_solve_metrics_from_plain_solve(problem):
    # A plain solve carries its own telemetry: no option, no sink.
    d, e = problem
    res = dc_eigh(d, e, full_result=True)
    m = solve_metrics(res)
    c = m.counters
    merges = res.info.ctx.merge_stats
    assert c["scheduler.tasks"] == len(res.graph.tasks)
    assert c["merge.count"] == len(merges)
    assert len(m.hists["secular.iterations"]) == c["secular.roots"]
    assert c["secular.sweeps"] == sum(s.secular_sweeps for s in merges)
    # Sequential: every task has a ready depth; nothing parks.
    assert len(m.hists["scheduler.ready_depth"]) == len(res.graph.tasks)
    assert "scheduler.park.count" not in c


def test_solver_spans_and_counters(problem):
    # The solve-level counters; the wall-clock spans are gone (the
    # ledger measures those layers itself).
    d, e = problem
    res = _solve(d, e)
    c = solve_metrics(res).counters
    assert c["solve.count"] == 1 and c["solve.jobz.V"] == 1
    assert c["solve.tasks_submitted"] > 0
    assert c["scheduler.tasks"] == c["solve.tasks_submitted"]


def test_solve_metrics_of_a_1x1_solve():
    res = dc_eigh(np.array([2.0]), np.zeros(0), full_result=True)
    m = solve_metrics(res)
    assert m.counters == {"solve.count": 1.0, "solve.jobz.V": 1.0,
                          "solve.tasks_submitted": 0.0,
                          "scheduler.tasks": 0.0}
    assert not m.gauges and not m.hists and not m.series


def test_numeric_view_identical_across_backends(problem):
    # Merge stats are schedule independent, so every numeric name of
    # the view is the same on every backend.
    d, e = problem

    def numeric(res):
        m = solve_metrics(res)
        return ({k: v for k, v in m.counters.items()
                 if not k.startswith("scheduler.")},
                m.gauges,
                {k: v for k, v in m.hists.items()
                 if not k.startswith("scheduler.")})

    ref = numeric(_solve(d, e))
    assert numeric(_solve(d, e, backend="threads", n_workers=3)) == ref
    assert numeric(_solve(d, e, backend="simulated", n_workers=4)) == ref


def test_numeric_health_metrics(problem):
    d, e = problem
    m = solve_metrics(_solve(d, e))
    dr = m.hist_stats("merge.deflation_ratio")
    assert dr is not None and dr["count"] == m.counters["merge.count"]
    assert 0.0 <= dr["max"] <= 1.0
    g = m.hist_stats("merge.deflation_ratio.givens")
    z = m.hist_stats("merge.deflation_ratio.smallz")
    assert g["count"] == z["count"] == dr["count"]
    for a, b, c in zip(m.hists["merge.deflation_ratio"],
                       m.hists["merge.deflation_ratio.givens"],
                       m.hists["merge.deflation_ratio.smallz"]):
        assert a == pytest.approx(b + c)
    it = m.hist_stats("secular.iterations")
    assert it is not None and it["count"] == m.counters["secular.roots"]
    assert it["min"] >= 0 and it["mean"] > 1
    assert m.gauges["workspace.high_water_bytes"] > 0
    assert m.gauges["workspace.x_block_bytes"] > 0


def test_thread_scheduler_counters(problem):
    d, e = problem
    res = _solve(d, e, backend="threads", n_workers=3)
    m = solve_metrics(res)
    c = m.counters
    assert c["scheduler.tasks"] == len(res.graph.tasks)
    # Park counters are the trace's measured park intervals.
    assert c["scheduler.park.count"] == len(res.trace.idle_intervals)
    assert c["scheduler.park.time_s"] == pytest.approx(
        sum(b - a for _, a, b in res.trace.idle_intervals))
    rd = m.hist_stats("scheduler.ready_depth")
    assert rd is not None and rd["count"] == len(res.graph.tasks)
    for w, a, b in res.trace.idle_intervals:
        assert 0 <= w < 3 and b > a


def test_simulator_counters(problem):
    d, e = problem
    res = _solve(d, e, backend="simulated", n_workers=4)
    m = solve_metrics(res)
    assert m.counters["scheduler.tasks"] == len(res.graph.tasks)
    assert m.hist_stats("scheduler.ready_depth")["max"] > 0
    series = m.series[("scheduler.ready_depth", 0)]
    assert len(series) == len(res.graph.tasks)
    assert [t for t, _ in series] == sorted(t for t, _ in series)


def test_ready_depth_rebuilt_from_trace():
    # a -> {b, c} -> d on one worker, run a, b, c, d back to back.
    g = TaskGraph()
    h1, h2, h3 = DataHandle("1"), DataHandle("2"), DataHandle("3")
    a = g.insert_task(lambda: None, [(h1, OUTPUT)], name="a")
    b = g.insert_task(lambda: None, [(h1, INPUT), (h2, OUTPUT)], name="b")
    c = g.insert_task(lambda: None, [(h1, INPUT), (h3, OUTPUT)], name="c")
    dd = g.insert_task(lambda: None, [(h2, INPUT), (h3, INOUT)], name="d")
    trace = Trace(n_workers=1)
    for i, t in enumerate((a, b, c, dd)):
        trace.record(TraceEvent(t.uid, t.name, 0, float(i), i + 1.0,
                                seq=t.seq))
    # At a's start nothing else is ready; at b's start c is waiting; at
    # c's start nothing (d waits for c); at d's start nothing.
    assert ready_depth(trace, g) == [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0),
                                     (3.0, 0.0)]
    assert ready_depth(Trace(n_workers=1), g) == []


def test_graph_cache_counters(problem):
    # Cache and arena counters come from the session's stats().
    d, e = problem
    graph_template_cache.clear()
    with SolverSession(backend="sequential",
                       options=DCOptions(minpart=32)) as s:
        s.solve(d, e)
        res = s.solve(d, e, full_result=True)
        m = solve_metrics(res, s.stats())
    assert m.counters["graph_cache.misses"] == 1
    assert m.counters["graph_cache.hits"] == 1
    assert m.counters["workspace_pool.hits"] > 0
    assert "graph_cache.hits" not in solve_metrics(res).counters
    graph_template_cache.clear()


def test_strip_kernels_nest_under_their_merge():
    # jobz='N': the strip kernels (GivensStrip, PermuteStrip,
    # UpdateStrip, UpdateEig) belong to their merge like every other
    # merge kernel.
    d, e = make_test_matrix(4, 300, seed=3)
    res = dc_eigh(d, e, options=DCOptions(jobz="N"), full_result=True)
    merge_tags = {(s.lo, s.hi) for s in res.info.ctx.merge_stats}
    spans = {(s["lo"], s["hi"]): s for s in merge_spans_from_trace(res.trace)}
    tagged = [ev for ev in res.trace.events if ev.tag in merge_tags]
    assert {"GivensStrip", "PermuteStrip", "UpdateStrip",
            "UpdateEig"} <= {ev.name for ev in tagged}
    for ev in tagged:
        span = spans[ev.tag]
        assert span["t0"] <= ev.t_start and ev.t_end <= span["t1"]
    stacks = {line.rsplit(" ", 1)[0]
              for line in collapsed_stacks(res.trace).splitlines()}
    for ev in tagged:
        lo, hi = ev.tag
        level = spans[ev.tag]["level"]
        assert f"solve;level{level};merge[{lo}:{hi}];{ev.name}" in stacks
        assert f"solve;{ev.name}" not in stacks


# -- exporters --------------------------------------------------------------

@pytest.fixture(scope="module")
def instrumented(problem):
    d, e = problem
    res = _solve(d, e, backend="threads", n_workers=3)
    return solve_metrics(res), res.trace


def test_write_jsonl(instrumented):
    m, trace = instrumented
    buf = io.StringIO()
    n = write_jsonl(buf, m, trace)
    lines = [json.loads(ln) for ln in buf.getvalue().splitlines()]
    assert len(lines) == n > 0
    assert lines[0]["type"] == "meta" and lines[0]["version"] == 2
    assert lines[0]["n_workers"] == 3
    types = {ln["type"] for ln in lines}
    assert {"meta", "task", "counter", "hist", "gauge", "sample"} <= types
    assert not {"span", "event"} & types


def test_chrome_trace_document(instrumented):
    m, trace = instrumented
    doc = chrome_trace(trace, m)
    assert json.loads(json.dumps(doc)) == doc
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "C", "X"} <= phases
    # Worker rows and counter tracks on pid 0; merge hierarchy on pid 2.
    assert {e["pid"] for e in events} == {0, 2}
    counters = {e["name"] for e in events if e["ph"] == "C"}
    assert counters == {"scheduler.ready_depth"}
    merge_rows = [e for e in events if e["ph"] == "X" and e["pid"] == 2]
    assert merge_rows and all(e["name"].startswith("merge[")
                              for e in merge_rows)
    # The root merge is level 0 (contained by nothing); smaller merges
    # nest below it on higher-numbered rows.
    root = max(merge_rows, key=lambda e: e["args"]["hi"] - e["args"]["lo"])
    assert root["tid"] == 0
    assert max(e["tid"] for e in merge_rows) > 0


def test_prometheus_text(instrumented):
    m, trace = instrumented
    text = prometheus_text(m, trace)
    assert "# TYPE repro_scheduler_tasks_total counter" in text
    assert "repro_trace_makespan_seconds" in text
    assert 'quantile="0.9"' in text
    for line in text.splitlines():
        assert line.startswith("#") or len(line.split(" ")) == 2


def test_exporters_on_empty_collector():
    # Edge case: an empty view (no solve behind it) must still export
    # valid documents from every format.
    empty = SolveMetrics()
    buf = io.StringIO()
    n = write_jsonl(buf, empty)
    lines = [json.loads(ln) for ln in buf.getvalue().splitlines()]
    assert len(lines) == n == 1 and lines[0]["type"] == "meta"
    doc = chrome_trace(Trace(n_workers=0), empty)
    assert json.loads(json.dumps(doc)) == doc
    assert prometheus_text(empty) == "\n"
    from tests.test_live_obs import assert_prometheus_grammar
    empty.counters["x"] = 1.0
    assert_prometheus_grammar(prometheus_text(empty))


def test_telemetry_block_deterministic_across_identical_solves(problem):
    # Two identical simulated solves must produce identical telemetry
    # blocks (virtual time is deterministic).
    d, e = problem

    def block():
        res = _solve(d, e, backend="simulated", n_workers=4)
        return telemetry_block(solve_metrics(res), res.trace)

    a, b = block(), block()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["merge_deflation_ratio"]["count"] > 0


def test_prometheus_hostile_names_escaped():
    # Regression: metric names with format-illegal characters and label
    # values with quotes/newlines/backslashes must not corrupt the
    # exposition output.
    from repro.obs import prom_label_value, prom_name

    assert prom_name('merge.deflation%ratio{x="y"}') == \
        "repro_merge_deflation_ratio_x__y__"
    assert prom_name("9lives") == "repro_9lives"
    assert prom_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    m = SolveMetrics(counters={'hostile metric{say="hi"}': 1.0},
                     gauges={"trailing.dot.": 2.0},
                     hists={"also.bad-name percentile": [1.0]})
    text = prometheus_text(m)
    from tests.test_live_obs import assert_prometheus_grammar
    assert_prometheus_grammar(text)
    assert "repro_hostile_metric_say__hi___total 1" in text
    assert "repro_also_bad_name_percentile_count 1" in text
    assert "repro_trailing_dot_ 2" in text


def test_telemetry_block_and_summary(instrumented):
    m, trace = instrumented
    block = telemetry_block(m, trace)
    assert block["n_tasks"] == len(trace.events)
    assert 0.0 <= block["idle_fraction"] <= 1.0
    assert block["merge_deflation_ratio"]["count"] > 0
    assert block["secular_iterations"]["count"] > 0
    assert block["workspace_high_water_bytes"] > 0
    text = telemetry_summary(m, trace)
    for needle in ("park cycles", "ready depth", "deflation ratio",
                   "LAED4 iterations", "workspace peak"):
        assert needle in text
    # Degenerate inputs stay usable.
    assert telemetry_block(None) == {}
    assert telemetry_summary(None) == ""
    assert "deflation ratio  : (none)" in telemetry_summary(SolveMetrics())


def test_pool_trace_worker_thread_names(problem):
    # Satellite: WorkerPool traces carry pool-worker-N thread_name
    # metadata so Perfetto rows are identifiable in long-lived sessions.
    d, e = problem
    with SolverSession(backend="threads", n_workers=3) as s:
        res = s.solve(d, e, full_result=True)
    doc = chrome_trace(res.trace)
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e.get("name") == "thread_name" and e["pid"] == 0}
    assert names == {"pool-worker-0", "pool-worker-1", "pool-worker-2"}


# -- CLI --------------------------------------------------------------------

def test_cli_trace_out(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "artifacts"
    assert main(["trace", "--size", "150", "--backend", "threads",
                 "--cores", "3", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "park cycles" in text and "LAED4 iterations" in text
    for fname in ("trace.jsonl", "trace_chrome.json", "trace.folded",
                  "gantt.txt", "summary.txt", "telemetry.prom"):
        assert (out / fname).exists(), fname
    with open(out / "trace_chrome.json") as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]
    with open(out / "trace.jsonl") as fh:
        lines = [json.loads(ln) for ln in fh]
    assert lines[0]["version"] == 2
    assert np.isfinite([ln["value"] for ln in lines
                        if ln["type"] == "counter"]).all()
