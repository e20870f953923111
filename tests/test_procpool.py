"""Process-parallel backend: bitwise equivalence, faults, crash recovery.

The processes backend runs the identical task flow on spawned worker
processes with shared-memory workspaces.  These tests pin the backend
contract: results bitwise identical to the sequential reference (across
matrix types, graph-cache reuse, sessions and subsets), typed failure
semantics matching the other backends (injected faults, first-failure
cancellation, batch isolation), crash containment (a killed worker
degrades to a typed ``TaskFailure`` and the pool respawns), and the
observability surface (``proc-worker-N`` trace lanes, per-kernel
session metrics, post-mortem bundles replaying the failing run's trace).

Worker processes take ~a second to spawn, so most tests share one
module-scoped session; tests that kill workers or tear down the pool
build their own.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro import dc_eigh, dc_eigh_many
from repro.core import DCOptions, SolverSession
from repro.errors import InjectedFault, ReproError, SchedulerError, \
    TaskFailure
from repro.matrices import test_matrix as table3_matrix
from repro.runtime import FaultSpec


def _problem(n=150, mtype=4, seed=7):
    return table3_matrix(mtype, n, seed=seed)


@pytest.fixture(scope="module")
def procs_session():
    with SolverSession(backend="processes", n_workers=2,
                       options=DCOptions(reuse_graph=True)) as s:
        yield s


# ---------------------------------------------------------------------------
# Bitwise equivalence with the sequential reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mtype", list(range(1, 16)))
def test_processes_bitwise_identical_table3(procs_session, mtype):
    d, e = table3_matrix(mtype, 300, seed=mtype)
    lam0, V0 = dc_eigh(d, e, backend="sequential")
    lam, V = procs_session.solve(d, e)
    np.testing.assert_array_equal(lam0, lam)
    np.testing.assert_array_equal(V0, V)


def test_processes_one_shot_dc_eigh_bitwise(tmp_path):
    # dc_eigh(..., backend="processes") spins a transient pool per call
    # and must still match, with no leaked worker processes after.
    d, e = _problem()
    lam0, V0 = dc_eigh(d, e, backend="sequential")
    lam, V = dc_eigh(d, e, backend="processes", n_workers=2)
    np.testing.assert_array_equal(lam0, lam)
    np.testing.assert_array_equal(V0, V)


def test_processes_subset_bitwise(procs_session):
    d, e = _problem(seed=3)
    subset = np.arange(20, 60)
    lam0, V0 = dc_eigh(d, e, backend="sequential", subset=subset)
    lam, V = procs_session.solve(d, e, subset=subset)
    np.testing.assert_array_equal(lam0, lam)
    np.testing.assert_array_equal(V0, V)


def test_processes_graph_cache_reuse_bitwise(procs_session):
    # Same shape solved repeatedly: children instantiate from their own
    # template caches; dirty workspace reuse must stay invisible.
    for seed in range(4):
        d, e = _problem(seed=seed)
        lam0, V0 = dc_eigh(d, e, backend="sequential")
        lam, V = procs_session.solve(d, e)
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


def test_processes_concurrent_submissions_bitwise_unaliased(procs_session):
    problems = [_problem(seed=s) for s in range(5)]
    expected = [dc_eigh(d, e) for d, e in problems]
    handles = [procs_session.submit(d, e) for d, e in problems]
    results = [h.result() for h in handles]
    for (lam0, V0), (lam, V) in zip(expected, results):
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)
    # Results are copies out of shared memory: never aliased.
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            assert not np.shares_memory(results[i][1], results[j][1])


def test_processes_dc_eigh_many_uses_session():
    problems = [_problem(seed=s) for s in range(3)]
    expected = [dc_eigh(d, e) for d, e in problems]
    out = dc_eigh_many(problems, backend="processes", n_workers=2)
    for (lam0, V0), (lam, V) in zip(expected, out):
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


# ---------------------------------------------------------------------------
# Fault semantics: identical to the other backends
# ---------------------------------------------------------------------------

def test_processes_injected_fault_typed_and_session_survives(procs_session):
    d, e = _problem()
    h = procs_session.submit(d, e, options=DCOptions(
        reuse_graph=True,
        fault_injection=FaultSpec(kernel="LAED4", nth=1)))
    with pytest.raises(TaskFailure) as ei:
        h.result()
    assert ei.value.task_name == "LAED4"
    assert isinstance(ei.value.__cause__, InjectedFault)
    # The pool drained the failed run; the session keeps serving.
    lam0, V0 = dc_eigh(d, e)
    lam, V = procs_session.solve(d, e)
    np.testing.assert_array_equal(lam0, lam)
    np.testing.assert_array_equal(V0, V)


def test_processes_batch_isolates_failures(procs_session):
    d, e = _problem(seed=2)
    good = [procs_session.submit(d, e) for _ in range(3)]
    bad = procs_session.submit(d, e, options=DCOptions(
        reuse_graph=True,
        fault_injection=FaultSpec(kernel="Compute_deflation", nth=0)))
    assert isinstance(bad.exception(), ReproError)
    lam0, V0 = dc_eigh(d, e)
    for h in good:
        assert h.exception() is None
        lam, V = h.result()
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


def test_processes_fault_in_state_delta_kernel(procs_session):
    # ReduceW ships its result back as a state delta rather than a
    # shared-array write; failing it exercises the failure path for
    # delta-carrying kernels too.
    d, e = _problem(seed=5)
    with pytest.raises(TaskFailure) as ei:
        procs_session.solve(d, e, options=DCOptions(
            reuse_graph=True,
            fault_injection=FaultSpec(kernel="ReduceW", nth=0)))
    assert ei.value.task_name == "ReduceW"


# ---------------------------------------------------------------------------
# Worker-crash containment
# ---------------------------------------------------------------------------

def test_processes_worker_crash_fails_run_and_respawns():
    d_small, e_small = _problem()
    with SolverSession(backend="processes", n_workers=2) as s:
        np.testing.assert_array_equal(dc_eigh(d_small, e_small)[0],
                                      s.solve(d_small, e_small)[0])
        pool = s._pool
        victim = pool._workers[0].proc.pid
        h = s.submit(*table3_matrix(4, 900, seed=1))
        time.sleep(0.05)
        os.kill(victim, signal.SIGKILL)
        exc = h.exception()
        assert isinstance(exc, (TaskFailure, SchedulerError))
        if isinstance(exc, TaskFailure):
            assert "died" in str(exc)
        # The pool respawned a replacement; later solves succeed.
        deadline = time.time() + 10.0
        while pool.workers_alive < 2 and time.time() < deadline:
            time.sleep(0.05)
        assert pool.workers_alive == 2
        lam0, V0 = dc_eigh(d_small, e_small)
        lam, V = s.solve(d_small, e_small)
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


def test_processes_shutdown_fails_stranded_runs():
    d, e = table3_matrix(4, 900, seed=2)
    s = SolverSession(backend="processes", n_workers=2)
    try:
        h = s.submit(d, e)
    finally:
        s.close(wait=False)
    with pytest.raises((SchedulerError, TaskFailure)):
        h.result(timeout=30)


# ---------------------------------------------------------------------------
# Observability surface
# ---------------------------------------------------------------------------

def test_processes_trace_has_proc_worker_lanes(procs_session):
    d, e = _problem()
    res = procs_session.solve(d, e, full_result=True)
    assert res.trace.worker_names == ["proc-worker-0", "proc-worker-1"]
    workers = {ev.worker for ev in res.trace.events}
    assert workers <= {0, 1}
    assert len(res.trace.events) == len(res.graph.tasks)
    names = {ev.name for ev in res.trace.events}
    assert {"STEDC", "LAED4", "PermuteV"} <= names


def test_processes_kernel_metrics_sum_to_tasks():
    # A fresh session, so it has seen only successful solves: the
    # per-kernel task counters sum to the session's task counter.
    import re

    from repro.obs import live_metrics_text

    d, e = _problem()
    with SolverSession(backend="processes", n_workers=2) as s:
        res = s.solve(d, e, full_result=True)
        s.solve(d, e)
        text = live_metrics_text(s)
        kernels = s.metrics.kernel_stats()
        assert s.stats()["backend"] == "processes"
    total = int(re.search(r"^repro_session_tasks_total (\d+)", text,
                          re.M).group(1))
    per_kernel = re.findall(
        r'^repro_session_kernel_tasks_total\{kernel="\w+"\} (\d+)', text,
        re.M)
    assert sum(map(int, per_kernel)) == total == 2 * len(res.graph.tasks)
    assert {k: v["tasks"] for k, v in kernels.items()} \
        == {k: 2 * n for k, n in res.trace.kernel_counts().items()}


def test_processes_postmortem_replays_own_run(procs_session, tmp_path):
    d, e = _problem(seed=4)
    spec = FaultSpec(kernel="LAED4", nth=2)
    with pytest.raises(TaskFailure) as ei:
        procs_session.solve(d, e, options=DCOptions(
            reuse_graph=True, fault_injection=spec,
            postmortem_dir=str(tmp_path)))
    partial = ei.value.trace
    assert partial.worker_names == ["proc-worker-0", "proc-worker-1"]
    (bundle,) = sorted(tmp_path.glob("postmortem-*.jsonl"))
    lines = [json.loads(ln) for ln in bundle.read_text().splitlines()]
    head, events = lines[0], lines[1:]
    assert head["version"] == 3
    # The bundle's task lines are exactly this run's completed tasks.
    assert sorted((ev["name"], ev["task_seq"], ev["worker"])
                  for ev in events if ev["kind"] == "task") \
        == sorted((ev.name, ev.seq, ev.worker) for ev in partial.events)
    (fail,) = [ev for ev in events if ev["kind"] == "task.fail"]
    assert fail["task_seq"] == ei.value.seq and fail["name"] == "LAED4"


def test_processes_telemetry_counters(procs_session):
    from repro.obs import Collector
    col = Collector()
    d, e = _problem()
    lam, V = procs_session.solve(d, e, options=DCOptions(
        reuse_graph=True, telemetry=col))
    assert col.counters.get("scheduler.tasks", 0) > 0
    assert col.counters.get("merge.count", 0) > 0
    assert col.hist_stats("merge.deflation_ratio")["count"] > 0


def test_processes_pool_introspection(procs_session):
    pool = procs_session._pool
    assert pool.n_workers == 2
    assert pool.workers_alive == 2
    assert not pool.closed
    assert 0 <= pool.parked <= 2
