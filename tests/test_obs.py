"""Tests for the observability subsystem (repro/obs).

Recorder semantics, zero-impact-on-results guarantee, scheduler/cache
counters, numeric-health metrics, the exporters, and the CLI dump path.
"""

import io
import json

import numpy as np
import pytest

from repro.core import DCOptions, dc_eigh, graph_template_cache, template_key
from repro.matrices import test_matrix as make_test_matrix
from repro.obs import (NULL_RECORDER, Collector, NullRecorder, chrome_trace,
                       prometheus_text, telemetry_block, telemetry_summary,
                       write_jsonl)


@pytest.fixture(scope="module")
def problem():
    return make_test_matrix(4, 120, seed=0)


def _solve(d, e, collector=None, **kw):
    opts = DCOptions(minpart=32, telemetry=collector)
    return dc_eigh(d, e, options=opts, full_result=True, **kw)


# -- recorders --------------------------------------------------------------

def test_null_recorder_is_inert():
    r = NullRecorder()
    assert r.enabled is False
    with r.span("solve", n=5) as s:
        assert s is not None
    r.add("x")
    r.observe("x", 1.0)
    r.observe_many("x", [1.0, 2.0])
    r.gauge_max("x", 3.0)
    r.sample("x", 1.0)
    r.bulk_samples("x", 0, [(0.0, 1.0)])
    r.event("x")
    assert not hasattr(r, "__dict__")        # __slots__: truly stateless


def test_null_recorder_singleton_span_reused():
    a = NULL_RECORDER.span("a")
    b = NULL_RECORDER.span("b")
    assert a is b                            # no per-call allocation


def test_collector_counters_hists_gauges():
    c = Collector()
    assert c.enabled is True
    c.add("n")
    c.add("n", 2.0)
    assert c.counter("n") == 3.0
    assert c.counter("missing", -1.0) == -1.0
    c.observe("h", 4.0)
    c.observe_many("h", [1.0, 2.0, 3.0])
    st = c.hist_stats("h")
    assert st["count"] == 4 and st["min"] == 1.0 and st["max"] == 4.0
    assert st["sum"] == 10.0
    assert c.hist_stats("missing") is None
    c.gauge_max("g", 5.0)
    c.gauge_max("g", 2.0)
    assert c.gauges["g"] == 5.0
    c.bulk_samples("s", 1, [(0.0, 1.0), (1.0, 2.0)])
    # Series are bounded deques now (SERIES_MAXLEN); content is intact.
    assert list(c.series[("s", 1)]) == [(0.0, 1.0), (1.0, 2.0)]


def test_collector_span_nesting():
    c = Collector()
    with c.span("outer", n=3):
        with c.span("inner"):
            pass
        with c.span("inner2"):
            pass
    spans = c.span_tree()
    assert [s.name for s in spans] == ["outer", "inner", "inner2"]
    outer = spans[0]
    assert outer.parent == -1 and outer.attrs == {"n": 3}
    assert all(s.parent == outer.sid for s in spans[1:])
    assert all(s.t1 >= s.t0 for s in spans)


# -- zero impact on results -------------------------------------------------

@pytest.mark.parametrize("backend", ["sequential", "threads"])
def test_results_bitwise_identical_with_telemetry(problem, backend):
    d, e = problem
    kw = {"n_workers": 3} if backend == "threads" else {}
    base = _solve(d, e, backend=backend, **kw)
    inst = _solve(d, e, collector=Collector(), backend=backend, **kw)
    assert np.array_equal(base.lam, inst.lam)
    assert np.array_equal(base.V, inst.V)


def test_telemetry_excluded_from_options_identity(problem):
    assert DCOptions() == DCOptions(telemetry=Collector())
    n = 256
    opts = DCOptions(telemetry=Collector())
    assert template_key(n, opts) == template_key(n, DCOptions())


# -- instrumentation sites --------------------------------------------------

def test_solver_spans_and_counters(problem):
    d, e = problem
    col = Collector()
    _solve(d, e, collector=col)
    names = [s.name for s in col.span_tree()]
    assert names[0] == "solve"
    assert "graph.build" in names and "execute" in names
    assert "finalize" in names
    assert col.counter("solve.count") == 1
    assert col.counter("solve.tasks_submitted") > 0
    assert col.counter("scheduler.tasks") == col.counter(
        "solve.tasks_submitted")


def test_thread_scheduler_counters(problem):
    d, e = problem
    col = Collector()
    res = _solve(d, e, collector=col, backend="threads", n_workers=3)
    c = col.counters
    assert c["scheduler.tasks"] == len(res.graph.tasks)
    assert "scheduler.park.count" in c
    assert c.get("scheduler.dep_resolve.time_s", -1) >= 0
    qd = col.hist_stats("scheduler.queue_depth")
    assert qd is not None and qd["count"] == len(res.graph.tasks)
    # Satellite: park intervals are measured into the trace.
    for w, a, b in res.trace.idle_intervals:
        assert 0 <= w < 3 and b > a


def test_simulator_counters(problem):
    d, e = problem
    col = Collector()
    res = _solve(d, e, collector=col, backend="simulated", n_workers=4)
    assert col.counter("scheduler.tasks") == len(res.graph.tasks)
    assert col.hist_stats("scheduler.ready_depth")["count"] > 0
    assert ("scheduler.ready_depth", 0) in col.series


def test_graph_cache_counters(problem):
    d, e = problem
    graph_template_cache.clear()
    col = Collector()
    opts = DCOptions(minpart=32, reuse_graph=True, telemetry=col)
    dc_eigh(d, e, options=opts)
    dc_eigh(d, e, options=opts)
    assert col.counter("graph_cache.misses") == 1
    assert col.counter("graph_cache.hits") == 1
    assert col.hist_stats("graph_cache.build_s")["count"] == 1
    assert col.hist_stats("graph_cache.instantiate_s")["count"] == 1
    graph_template_cache.clear()


def test_numeric_health_metrics(problem):
    d, e = problem
    col = Collector()
    _solve(d, e, collector=col)
    dr = col.hist_stats("merge.deflation_ratio")
    assert dr is not None and dr["count"] == col.counter("merge.count")
    assert 0.0 <= dr["max"] <= 1.0
    g = col.hist_stats("merge.deflation_ratio.givens")
    z = col.hist_stats("merge.deflation_ratio.smallz")
    assert g["count"] == z["count"] == dr["count"]
    it = col.hist_stats("secular.iterations")
    assert it is not None and it["count"] == col.counter("secular.roots")
    assert it["min"] >= 0
    assert col.gauges["workspace.high_water_bytes"] > 0
    assert col.gauges["workspace.x_block_bytes"] > 0


# -- exporters --------------------------------------------------------------

@pytest.fixture(scope="module")
def instrumented(problem):
    d, e = problem
    col = Collector()
    opts = DCOptions(minpart=32, telemetry=col)
    res = dc_eigh(d, e, options=opts, backend="threads", n_workers=3,
                  full_result=True)
    return col, res.trace


def test_write_jsonl(instrumented):
    col, trace = instrumented
    buf = io.StringIO()
    n = write_jsonl(buf, col, trace)
    lines = [json.loads(ln) for ln in buf.getvalue().splitlines()]
    assert len(lines) == n > 0
    assert lines[0]["type"] == "meta" and lines[0]["version"] == 1
    assert lines[0]["n_workers"] == 3
    types = {ln["type"] for ln in lines}
    assert {"meta", "task", "span", "counter", "hist",
            "gauge", "sample"} <= types


def test_chrome_trace_document(instrumented):
    col, trace = instrumented
    doc = chrome_trace(trace, col)
    assert json.loads(json.dumps(doc)) == doc
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "C", "X"} <= phases
    pids = {e["pid"] for e in events}
    assert pids == {0, 1, 2}
    # Solver spans live on pid 1; merge hierarchy rows on pid 2.
    span_names = {e["name"] for e in events
                  if e["ph"] == "X" and e["pid"] == 1}
    assert "solve" in span_names and "execute" in span_names
    merge_rows = [e for e in events if e["ph"] == "X" and e["pid"] == 2]
    assert merge_rows and all(e["name"].startswith("merge[")
                              for e in merge_rows)
    # The root merge is level 0 (contained by nothing); smaller merges
    # nest below it on higher-numbered rows.
    root = max(merge_rows, key=lambda e: e["args"]["hi"] - e["args"]["lo"])
    assert root["tid"] == 0
    assert max(e["tid"] for e in merge_rows) > 0


def test_prometheus_text(instrumented):
    col, trace = instrumented
    text = prometheus_text(col, trace)
    assert "# TYPE repro_scheduler_tasks_total counter" in text
    assert "repro_trace_makespan_seconds" in text
    assert 'quantile="0.9"' in text
    for line in text.splitlines():
        assert line.startswith("#") or len(line.split(" ")) == 2


def test_exporters_on_empty_collector():
    # Edge case: a Collector that never saw a solve must still export
    # valid documents from every format.
    empty = Collector()
    buf = io.StringIO()
    n = write_jsonl(buf, empty)
    lines = [json.loads(ln) for ln in buf.getvalue().splitlines()]
    assert len(lines) == n == 1 and lines[0]["type"] == "meta"
    from repro.runtime.trace import Trace
    doc = chrome_trace(Trace(n_workers=0), empty)
    assert json.loads(json.dumps(doc)) == doc
    text = prometheus_text(empty)
    assert text == "\n"
    from tests.test_live_obs import assert_prometheus_grammar
    empty.add("x")
    assert_prometheus_grammar(prometheus_text(empty))


def test_telemetry_block_deterministic_across_identical_solves(problem):
    # Two identical simulated solves must produce identical telemetry
    # blocks (virtual time is deterministic, digests included).
    d, e = problem

    def block():
        col = Collector()
        res = _solve(d, e, collector=col, backend="simulated", n_workers=4)
        return telemetry_block(col, res.trace)

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

    col = Collector()
    col.add('hostile metric{say="hi"}')
    col.observe('also.bad-name percentile', 1.0)
    col.gauge_max("trailing.dot.", 2.0)
    text = prometheus_text(col)
    from tests.test_live_obs import assert_prometheus_grammar
    assert_prometheus_grammar(text)
    assert "repro_hostile_metric_say__hi___total 1" in text
    assert "repro_also_bad_name_percentile_count 1" in text
    assert "repro_trailing_dot_ 2" in text


def test_digest_backed_hists_in_collector():
    # The high-cardinality histograms stream through digests: exact
    # counts/min/max/sum, bounded memory, and hist_stats-compatible.
    col = Collector()
    col.observe_many("merge.deflation_ratio", [0.1, 0.2, 0.3])
    col.observe("secular.iterations", 4.0)
    col.observe("some.small.hist", 1.0)          # stays a plain list
    assert "merge.deflation_ratio" in col.digests
    assert "some.small.hist" not in col.digests
    st = col.hist_stats("merge.deflation_ratio")
    assert st["count"] == 3 and st["min"] == 0.1 and st["max"] == 0.3
    assert st["sum"] == pytest.approx(0.6)
    assert set(col.hist_names()) == {"merge.deflation_ratio",
                                     "secular.iterations",
                                     "some.small.hist"}


def test_telemetry_block_and_summary(instrumented):
    col, trace = instrumented
    block = telemetry_block(col, trace)
    assert block["n_tasks"] == len(trace.events)
    assert 0.0 <= block["idle_fraction"] <= 1.0
    assert block["merge_deflation_ratio"]["count"] > 0
    assert block["secular_iterations"]["count"] > 0
    assert block["workspace_high_water_bytes"] > 0
    text = telemetry_summary(col, trace)
    for needle in ("park cycles", "deflation ratio", "LAED4 iterations",
                   "solve phases", "workspace peak"):
        assert needle in text
    # Degenerate inputs stay usable.
    assert telemetry_block(None) == {}
    assert telemetry_summary(None) == ""
    empty = Collector()
    assert "deflation ratio  : (none)" in telemetry_summary(empty)


def test_pool_trace_worker_thread_names(problem):
    # Satellite: WorkerPool traces carry pool-worker-N thread_name
    # metadata so Perfetto rows are identifiable in long-lived sessions.
    from repro.core.session import SolverSession

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
        assert all(json.loads(ln) for ln in fh)
