"""Live service observability: streaming digests, per-kernel totals,
post-mortem bundles replaying the failing run's trace, and the /metrics
endpoint (repro/obs/live).
"""

import json
import math
import re
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import DCOptions
from repro.core.session import SolverSession
from repro.errors import TaskFailure
from repro.matrices import test_matrix as table3_matrix
from repro.obs import (Digest, SessionMetrics, healthz_payload,
                       live_metrics_text, write_postmortem)
from repro.runtime import FaultSpec


def _problem(n=220, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(n - 1)


# ---------------------------------------------------------------------------
# Prometheus exposition-format grammar (shared checker)
# ---------------------------------------------------------------------------

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:\\\\|\\"|\\n|[^"\\\n])*"'
_VALUE = r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
_METRIC_LINE = re.compile(
    rf"^{_NAME}(?:\{{{_LABEL}(?:,{_LABEL})*\}})? {_VALUE}$")
_TYPE_LINE = re.compile(rf"^# TYPE {_NAME} (counter|gauge|summary)$")


def assert_prometheus_grammar(text):
    """Every line must be a valid exposition-format metric or comment."""
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert _TYPE_LINE.match(line), f"bad comment line: {line!r}"
        else:
            assert _METRIC_LINE.match(line), f"bad metric line: {line!r}"


# ---------------------------------------------------------------------------
# Digest (streaming quantile sketch)
# ---------------------------------------------------------------------------

def test_digest_empty():
    d = Digest()
    assert d.stats() is None
    assert math.isnan(d.quantile(0.5))


def test_digest_exact_aggregates():
    d = Digest()
    xs = [3.0, 1.0, 4.0, 1.0, 5.0]
    d.add_many(xs)
    assert d.count == 5 and d.sum == sum(xs)
    assert d.min == 1.0 and d.max == 5.0
    assert d.mean == pytest.approx(sum(xs) / 5)


def test_digest_p99_within_2pct_on_unimodal_stream():
    # Acceptance gate: p50/p90/p99 within 2% of exact on a deterministic
    # 1e4-sample unimodal (latency-like) stream.
    rng = np.random.default_rng(42)
    xs = rng.lognormal(mean=0.0, sigma=0.5, size=10_000)
    d = Digest()
    d.add_many(xs)
    for q in (0.5, 0.9, 0.99):
        exact = float(np.quantile(xs, q))
        est = d.quantile(q)
        assert abs(est - exact) / exact < 0.02, (q, est, exact)


def test_digest_constant_memory():
    d = Digest(delta=200.0, buffer_size=512)
    rng = np.random.default_rng(0)
    d.add_many(rng.normal(size=100_000))
    # Bound: ~delta/2 centroids + the unflushed buffer.
    assert d.n_centroids <= d.delta / 2 + d.buffer_size
    assert d.count == 100_000


def test_digest_merge_matches_single_stream():
    rng = np.random.default_rng(7)
    xs = rng.lognormal(sigma=0.4, size=8000)
    whole = Digest()
    whole.add_many(xs)
    parts = [Digest() for _ in range(4)]
    for i, p in enumerate(parts):
        p.add_many(xs[i::4])
    merged = Digest.merged(parts)
    assert merged.count == whole.count == 8000
    assert merged.sum == pytest.approx(whole.sum)
    assert merged.min == whole.min and merged.max == whole.max
    for q in (0.5, 0.9, 0.99):
        exact = float(np.quantile(xs, q))
        assert abs(merged.quantile(q) - exact) / exact < 0.02


def test_digest_ramp_quantiles():
    d = Digest()
    d.add_many(float(i) for i in range(10_000))
    assert abs(d.quantile(0.5) - 5000.0) < 100.0
    assert abs(d.quantile(0.99) - 9900.0) < 100.0
    assert d.quantile(0.0) == 0.0 and d.quantile(1.0) == 9999.0


# ---------------------------------------------------------------------------
# Session metrics
# ---------------------------------------------------------------------------

def test_session_metrics_merge_across_sessions():
    a, b = SessionMetrics(), SessionMetrics()
    for i in range(100):
        a.note_solve(0.010 + i * 1e-4)
        b.note_solve(0.020 + i * 1e-4, failed=(i == 0), n_tasks=5)
    merged = SessionMetrics.merged([a, b])
    assert merged.solves == 200
    assert merged.failures == 1
    assert merged.tasks == 500
    st = merged.digest_stats()["latency_s"]
    assert st["count"] == 200
    assert st["min"] == pytest.approx(0.010)
    assert st["max"] == pytest.approx(0.020 + 99e-4)
    assert merged.last_solve_age_s() is not None


def _kernel_totals(trace):
    return {name: {"seconds": secs, "tasks": trace.kernel_counts()[name]}
            for name, secs in trace.kernel_times().items()}


def test_session_metrics_self_merge_doubles():
    # merge() must never hold both sessions' locks: with one session on
    # both sides that would wait on its own non-reentrant lock.  Run it
    # on a thread with a deadline so a deadlock fails the test instead
    # of wedging the suite.
    m = SessionMetrics()

    class _Trace:
        def kernel_totals(self):
            return {"LAED4": 0.5, "STEDC": 0.25}, {"LAED4": 3, "STEDC": 2}

    for i in range(10):
        m.note_solve(0.01 * (i + 1), n_tasks=5, jobz="V", trace=_Trace())
    th = threading.Thread(target=m.merge, args=(m,), daemon=True)
    th.start()
    th.join(timeout=10.0)
    assert not th.is_alive(), "SessionMetrics.merge(self) deadlocked"
    assert m.solves == 20 and m.tasks == 100
    assert m.solves_by_jobz == {"V": 20}
    assert m.digest_stats()["latency_s"]["count"] == 20
    assert m.kernel_stats() == {"LAED4": {"seconds": 10.0, "tasks": 60},
                                "STEDC": {"seconds": 5.0, "tasks": 40}}


def test_session_metrics_merge_never_holds_both_locks():
    # Two threads merging two sessions into each other take the locks in
    # opposite orders, so a.merge(b) must not keep a's lock while it
    # waits for b's.  Stage that interleaving deterministically: hold b's
    # lock (as a concurrent b.merge(a) would), start a.merge(b), then
    # take a's lock the way that concurrent merge would next.
    a, b = SessionMetrics(), SessionMetrics()
    a.note_solve(0.01, n_tasks=1)
    b.note_solve(0.02, n_tasks=2)
    b._lock.acquire()
    try:
        merger = threading.Thread(target=a.merge, args=(b,), daemon=True)
        merger.start()
        time.sleep(0.2)                  # a.merge(b) now waits on b's lock
        got_a = a._lock.acquire(timeout=5.0)
        if got_a:
            a._lock.release()
    finally:
        b._lock.release()
    merger.join(timeout=10.0)
    assert got_a, "a.merge(b) held a's lock while waiting for b's"
    assert not merger.is_alive()
    assert a.solves == 2 and a.tasks == 3


def test_session_records_metrics_and_kernels():
    d, e = _problem(160)
    with SolverSession(backend="threads", n_workers=2,
                       options=DCOptions(minpart=32)) as s:
        res0 = s.solve(d, e, full_result=True)
        res1 = s.solve(d, e, full_result=True)
        np.testing.assert_array_equal(res0.lam, res1.lam)
        np.testing.assert_array_equal(res0.V, res1.V)
        assert s.metrics.solves == 2
        assert s.metrics.failures == 0
        dig = s.metrics.digest_stats()
        assert dig["latency_s"]["count"] == 2
        assert dig["deflation_ratio"]["count"] > 0
        # The per-kernel totals are exactly the two solves' traces.
        assert s.metrics.tasks == len(res0.trace.events) \
            + len(res1.trace.events)
        expected = _kernel_totals(res0.trace)
        for name, tot in _kernel_totals(res1.trace).items():
            expected[name]["seconds"] += tot["seconds"]
            expected[name]["tasks"] += tot["tasks"]
        got = s.metrics.kernel_stats()
        assert set(got) == set(expected)
        for name, tot in got.items():
            assert tot["tasks"] == expected[name]["tasks"]
            assert tot["seconds"] == pytest.approx(expected[name]["seconds"])
        assert s.stats()["metrics"]["solves"] == 2


def test_session_secular_iterations_are_per_root_means():
    # One sample per merge: the mean LAED4 iterations of its roots (not
    # the merge's panel sweeps divided by k).
    d, e = table3_matrix(4, 300, seed=5)
    with SolverSession(backend="sequential") as s:
        res = s.solve(d, e, full_result=True)
        st = s.metrics.digest_stats()["secular_iterations"]
    means = [sum(m.secular_iterations) / len(m.secular_iterations)
             for m in res.info.ctx.merge_stats if m.secular_iterations]
    assert st["count"] == len(means)
    assert st["sum"] == pytest.approx(sum(means))
    assert st["mean"] > 1.0


# ---------------------------------------------------------------------------
# Post-mortem bundles
# ---------------------------------------------------------------------------

def _read_bundle(path):
    lines = [json.loads(ln) for ln in path.read_text().splitlines()]
    head, events = lines[0], lines[1:]
    assert head["type"] == "postmortem" and head["version"] == 3
    assert "calibration" not in head and "flight" not in head
    assert all(ev["type"] == "event" for ev in events)
    assert head["n_events"] == len(events)
    return head, events


def test_postmortem_bundle_on_task_failure(tmp_path):
    d, e = table3_matrix(4, 420, seed=2)
    with SolverSession(backend="sequential",
                       options=DCOptions(minpart=32)) as s:
        res = s.solve(d, e, full_result=True)        # healthy: count tasks
        n_tasks = len(res.graph.tasks)
        assert n_tasks >= 256
        spec = FaultSpec(task_seq=n_tasks - 1)       # fail the last task
        opts = DCOptions(minpart=32, postmortem_dir=str(tmp_path),
                         fault_injection=spec)
        with pytest.raises(TaskFailure) as ei:
            s.submit(d, e, options=opts).result()
        assert s.metrics.failures == 1

    (bundle,) = sorted(tmp_path.glob("postmortem-*.jsonl"))
    head, events = _read_bundle(bundle)
    assert head["reason"] == "solve-failure"
    # The typed error names the failing task.
    err = head["error"]
    assert err["type"] == "TaskFailure"
    task = err["task"]
    assert task["seq"] == ei.value.seq
    assert task["name"] == ei.value.task_name
    assert "worker" in task                     # None on the seq backend
    # The solve's options and fault spec are replayable from the header.
    assert head["options"]["postmortem_dir"] == str(tmp_path)
    assert head["options"]["fault_injection"]["task_seq"] == n_tasks - 1
    assert head["session"]["metrics"]["solves"] == 2
    # The bundle replays exactly the failing run: every task that
    # completed before the fault on the last one, then the failure.
    tasks = [ev for ev in events if ev["kind"] == "task"]
    assert len(tasks) == n_tasks - 1
    assert sorted(ev["task_seq"] for ev in tasks) == list(range(n_tasks - 1))
    assert {"name", "worker", "task_seq", "t0", "t1"} <= set(tasks[0])
    (fail,) = [ev for ev in events if ev["kind"] == "task.fail"]
    assert events[-1] == fail
    assert fail["task_seq"] == ei.value.seq == n_tasks - 1
    assert fail["name"] == ei.value.task_name
    assert fail["detail"].startswith("InjectedFault")
    assert len(events) == n_tasks


def test_postmortem_bundle_on_steqr_fallback(tmp_path, monkeypatch):
    from repro.errors import ConvergenceError

    def boom(*args, **kwargs):
        raise ConvergenceError("synthetic secular failure")

    monkeypatch.setattr("repro.core.merge.solve_secular", boom)
    d, e = _problem(200, seed=1)
    opts = DCOptions(postmortem_dir=str(tmp_path))
    with SolverSession(backend="sequential", options=opts) as s:
        lam, V = s.solve(d, e)                  # succeeds via the fallback
    assert np.isfinite(lam).all()
    (bundle,) = sorted(tmp_path.glob("postmortem-*.jsonl"))
    head, events = _read_bundle(bundle)
    assert head["reason"] == "steqr-fallback"
    assert "error" not in head
    assert head["metrics"]["fallbacks"] > 0
    assert events


def test_postmortem_bundle_replays_own_run_on_threads(tmp_path):
    d, e = table3_matrix(4, 300, seed=3)
    spec = FaultSpec(kernel="LAED4", nth=2)
    opts = DCOptions(minpart=32, postmortem_dir=str(tmp_path),
                     fault_injection=spec)
    with SolverSession(backend="threads", n_workers=2) as s:
        s.solve(d, e)                            # a healthy run first
        with pytest.raises(TaskFailure) as ei:
            s.submit(d, e, options=opts).result()
    partial = ei.value.trace
    (bundle,) = sorted(tmp_path.glob("postmortem-*.jsonl"))
    head, events = _read_bundle(bundle)
    tasks = [ev for ev in events if ev["kind"] == "task"]
    assert sorted((ev["name"], ev["task_seq"], ev["worker"])
                  for ev in tasks) \
        == sorted((ev.name, ev.seq, ev.worker) for ev in partial.events)
    (fail,) = [ev for ev in events if ev["kind"] == "task.fail"]
    assert fail["task_seq"] == ei.value.seq
    assert fail["worker"] == ei.value.worker


def test_postmortem_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
    d, e = _problem(150, seed=4)
    spec = FaultSpec(kernel="LAED4", nth=0)
    with SolverSession(backend="threads", n_workers=2) as s:
        with pytest.raises(TaskFailure):
            s.submit(d, e,
                     options=DCOptions(fault_injection=spec)).result()
    assert list(tmp_path.glob("postmortem-*.jsonl"))


def test_write_postmortem_minimal(tmp_path):
    path = write_postmortem(str(tmp_path), reason="test",
                            error=ValueError("boom"))
    head, events = _read_bundle(tmp_path / path.split("/")[-1])
    assert head["reason"] == "test"
    assert head["error"] == {"type": "ValueError", "message": "boom"}
    assert head["options"] is None
    assert events == []


# ---------------------------------------------------------------------------
# Live metrics text + health + /metrics endpoint
# ---------------------------------------------------------------------------

def test_live_metrics_text_grammar_and_counters():
    d, e = _problem(150)
    with SolverSession(backend="threads", n_workers=2) as s:
        s.solve(d, e)
        text = live_metrics_text(s)
    assert_prometheus_grammar(text)
    assert "repro_session_solves_total 1\n" in text
    assert "repro_session_failures_total 0\n" in text
    assert 'repro_session_latency_s{quantile="0.99"}' in text
    assert "repro_pool_workers_alive 2\n" in text
    assert "repro_flight" not in text and "repro_profile" not in text
    # After only successful solves the per-kernel task counters sum to
    # the session's task counter.
    total = int(re.search(r"^repro_session_tasks_total (\d+)", text,
                          re.M).group(1))
    per_kernel = re.findall(
        r'^repro_session_kernel_tasks_total\{kernel="\w+"\} (\d+)', text,
        re.M)
    assert per_kernel and sum(map(int, per_kernel)) == total > 0
    assert 'repro_session_kernel_seconds_total{kernel="LAED4"}' in text


def test_healthz_transitions():
    s = SolverSession(backend="threads", n_workers=2)
    status, payload = healthz_payload(s)
    assert status == 200 and payload["status"] == "ok"
    s.close()
    status, payload = healthz_payload(s)
    assert status == 503 and payload["status"] == "closed"


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.headers.get("Content-Type"), \
            resp.read().decode()


@pytest.fixture()
def served_session():
    with SolverSession(backend="threads", n_workers=2,
                       serve_port=0) as s:
        yield s, s.server.address


def test_metrics_endpoint(served_session):
    s, addr = served_session
    d, e = _problem(150)
    s.solve(d, e)
    status, ctype, body = _get(addr + "/metrics")
    assert status == 200 and ctype.startswith("text/plain")
    assert_prometheus_grammar(body)
    assert "repro_session_solves_total 1\n" in body


def test_healthz_and_debug_endpoints(served_session):
    s, addr = served_session
    status, ctype, body = _get(addr + "/healthz")
    assert status == 200 and ctype == "application/json"
    assert json.loads(body)["status"] == "ok"
    status, _, body = _get(addr + "/debug/state")
    state = json.loads(body)
    assert state["backend"] == "threads"
    assert state["closed"] is False
    assert "metrics" in state
    assert state["kernels"] == {}                # no solve yet


def test_solve_endpoint_increments_counters(served_session):
    s, addr = served_session
    _, _, before = _get(addr + "/metrics")
    m = re.search(r"^repro_session_solves_total (\d+)", before, re.M)
    n0 = int(m.group(1))
    status, _, body = _get(addr + "/solve?n=200&type=4&seed=0")
    assert status == 200
    out = json.loads(body)
    assert out["n"] == 200 and out["latency_s"] > 0
    assert out["lam_min"] <= out["lam_max"]
    _, _, after = _get(addr + "/metrics")
    m = re.search(r"^repro_session_solves_total (\d+)", after, re.M)
    assert int(m.group(1)) == n0 + 1


def test_unknown_endpoint_404(served_session):
    _, addr = served_session
    with pytest.raises(urllib.error.HTTPError) as ei:
        _get(addr + "/nope")
    assert ei.value.code == 404
    doc = json.loads(ei.value.read().decode())
    assert "/metrics" in doc["endpoints"]


def test_server_closes_with_session():
    s = SolverSession(backend="threads", n_workers=2, serve_port=0)
    addr = s.server.address
    s.close()
    with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
        _get(addr + "/healthz")


# ---------------------------------------------------------------------------
# Bitwise identity with the full service layer on
# ---------------------------------------------------------------------------

def test_results_identical_with_service_layer(tmp_path):
    from repro import dc_eigh

    d, e = table3_matrix(2, 160, seed=5)
    lam0, V0 = dc_eigh(d, e)
    opts = DCOptions(postmortem_dir=str(tmp_path))
    with SolverSession(backend="threads", n_workers=3, options=opts,
                       serve_port=0) as s:
        lam1, V1 = s.solve(d, e)
    np.testing.assert_array_equal(lam0, lam1)
    np.testing.assert_array_equal(V0, V1)
    assert not list(tmp_path.glob("*.jsonl"))    # healthy: no bundle
