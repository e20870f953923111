"""SolverSession: bitwise equivalence, fused-batch isolation, pooling.

The session layer must be invisible to the numerics: results obtained
through a persistent session — concurrent submissions fused into one
super-DAG, workspaces recycled dirty across solves — are bitwise
identical to one-shot ``dc_eigh`` solves.  These tests pin that, plus
the service semantics: per-problem fault isolation inside a fused batch,
workspace-arena accounting, LRU template eviction, handle lifecycle and
session shutdown.
"""

import threading
import time

import numpy as np
import pytest

from repro import dc_eigh
from repro.core import DCOptions, SolveFailure, SolverSession, WorkspacePool
from repro.core.graph_cache import graph_template_cache
from repro.errors import InputError, SchedulerError, TaskFailure
from repro.matrices import test_matrix as table3_matrix
from repro.runtime import FaultSpec, TaskGraph, WorkerPool
from repro.runtime.quark import Quark


def _problem(n=150, mtype=4, seed=7):
    return table3_matrix(mtype, n, seed=seed)


# ---------------------------------------------------------------------------
# Bitwise equivalence with one-shot dc_eigh
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend,workers", [("sequential", None),
                                             ("threads", 2),
                                             ("threads", 4)])
def test_session_matches_one_shot_bitwise(backend, workers):
    d, e = _problem()
    lam0, V0 = dc_eigh(d, e)
    with SolverSession(backend=backend, n_workers=workers) as s:
        for _ in range(3):          # repeats exercise dirty-buffer reuse
            lam, V = s.solve(d, e)
            np.testing.assert_array_equal(lam0, lam)
            np.testing.assert_array_equal(V0, V)


def test_concurrent_submissions_bitwise_and_unaliased():
    problems = [_problem(seed=s) for s in range(6)]
    expected = [dc_eigh(d, e) for d, e in problems]
    with SolverSession(backend="threads", n_workers=4) as s:
        handles = [s.submit(d, e) for d, e in problems]
        results = [h.result() for h in handles]
    for (lam0, V0), (lam, V) in zip(expected, results):
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)
    # Pooled workspaces must never leak into returned results.
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            assert not np.shares_memory(results[i][1], results[j][1])


def test_session_subset_matches_one_shot():
    d, e = _problem(n=120)
    subset = np.arange(15, 40)
    lam0, V0 = dc_eigh(d, e, subset=subset)
    with SolverSession(backend="threads", n_workers=4) as s:
        lam, V = s.solve(d, e, subset=subset)
    assert V.shape == (120, 25)
    np.testing.assert_array_equal(lam0, lam)
    np.testing.assert_array_equal(V0, V)


def test_same_matrix_resubmitted_results_identical_not_shared():
    d, e = _problem()
    with SolverSession(backend="sequential") as s:
        lam1, V1 = s.solve(d, e)
        lam2, V2 = s.solve(d, e)
    np.testing.assert_array_equal(lam1, lam2)
    np.testing.assert_array_equal(V1, V2)
    assert not np.shares_memory(V1, V2)


def test_session_full_result_and_latency():
    d, e = _problem(n=100)
    with SolverSession(backend="threads", n_workers=2) as s:
        h = s.submit(d, e, full_result=True)
        res = h.result()
    assert res.trace.makespan > 0
    assert h.done()
    assert h.latency_s is not None and h.latency_s > 0
    lam0, V0 = dc_eigh(d, e)
    np.testing.assert_array_equal(res.lam, lam0)
    np.testing.assert_array_equal(res.V, V0)


def test_session_n1_fast_path():
    with SolverSession(backend="threads") as s:
        lam, V = s.solve(np.array([3.0]), np.array([]))
    assert lam[0] == 3.0 and V.shape == (1, 1)


# ---------------------------------------------------------------------------
# Fault isolation inside a fused batch
# ---------------------------------------------------------------------------

def test_fused_batch_isolates_bad_input():
    good_d, good_e = _problem()
    bad_d = good_d.copy()
    bad_d[7] = np.nan
    with SolverSession(backend="threads", n_workers=4) as s:
        out = s.map([(good_d, good_e), (bad_d, good_e),
                     (good_d, good_e)])
    assert isinstance(out[1], SolveFailure) and out[1].index == 1
    assert isinstance(out[1].error, InputError)
    assert "d[7]" in str(out[1].error)
    lam0, V0 = dc_eigh(good_d, good_e)
    for ok in (out[0], out[2]):
        np.testing.assert_array_equal(ok[0], lam0)
        np.testing.assert_array_equal(ok[1], V0)


def test_fused_batch_isolates_task_failure_to_one_subgraph():
    problems = [_problem(seed=s) for s in range(3)]
    failing = DCOptions(fault_injection=FaultSpec(kernel="ReduceW", nth=0))
    with SolverSession(backend="threads", n_workers=4) as s:
        handles = [s.submit(*problems[0]),
                   s.submit(*problems[1], options=failing),
                   s.submit(*problems[2])]
        with pytest.raises(TaskFailure, match="ReduceW"):
            handles[1].result()
        assert isinstance(handles[1].exception(), TaskFailure)
        # Batch-mates complete bitwise-correct despite the failed peer.
        for h, (d, e) in ((handles[0], problems[0]),
                          (handles[2], problems[2])):
            lam0, V0 = dc_eigh(d, e)
            lam, V = h.result()
            np.testing.assert_array_equal(lam0, lam)
            np.testing.assert_array_equal(V0, V)


def test_map_raise_on_error():
    d, e = _problem()
    bad = d.copy()
    bad[0] = np.inf
    with SolverSession(backend="threads", n_workers=2) as s:
        with pytest.raises(InputError):
            s.map([(d, e), (bad, e)], raise_on_error=True)


# ---------------------------------------------------------------------------
# Workspace pool
# ---------------------------------------------------------------------------

def test_workspace_pool_recycles_and_accounts():
    pool = WorkspacePool(max_free_per_shape=2)
    a = pool.take((4, 4))
    assert pool.misses == 1 and pool.owned_bytes == 128
    a[:] = 7.0
    pool.release(a)
    b = pool.take((4, 4))
    assert b is a and pool.hits == 1      # dirty buffer handed back
    pool.forget(b)
    assert pool.owned_bytes == 0
    assert pool.high_water_bytes == 128


def test_workspace_pool_global_byte_cap_evicts_lru_shapes():
    # Distinct (k,k) shapes model deflation-dependent merge X buffers:
    # without the global cap every k ever seen would retain free lists.
    pool = WorkspacePool(max_free_bytes=300)
    bufs = [pool.take((k, k)) for k in range(2, 7)]
    for b in bufs:
        pool.release(b)
    st = pool.stats()
    assert st["free_bytes"] <= 300
    assert st["evictions"] >= 1
    assert st["owned_bytes"] == st["free_bytes"]
    # The most recently released shape survives eviction (LRU order).
    assert pool.take((6, 6)) is bufs[-1]


def test_workspace_pool_drops_beyond_cap():
    pool = WorkspacePool(max_free_per_shape=1)
    bufs = [pool.take((3, 3)) for _ in range(3)]
    for b in bufs:
        pool.release(b)
    st = pool.stats()
    assert st["free_buffers"] == 1
    assert st["owned_bytes"] == 72        # two of three dropped
    assert st["high_water_bytes"] == 3 * 72


def test_session_pools_workspaces_across_solves():
    d, e = _problem(n=100)
    with SolverSession(backend="sequential") as s:
        s.solve(d, e)
        first = s.stats()["workspace"]
        s.solve(d, e)
        second = s.stats()["workspace"]
    assert first["misses"] >= 2           # V + Vws allocated fresh
    assert second["hits"] > first["hits"]  # second solve recycled buffers


def test_one_shot_dc_eigh_does_not_pool():
    d, e = _problem(n=80)
    s = SolverSession(backend="sequential", _one_shot=True)
    assert s.stats().get("workspace") is None
    lam, V = s.solve(d, e)
    np.testing.assert_array_equal(lam, dc_eigh(d, e)[0])


# ---------------------------------------------------------------------------
# Graph template cache: LRU + counters
# ---------------------------------------------------------------------------

def test_session_reuses_template_per_shape():
    graph_template_cache.clear()
    problems = [_problem(seed=s) for s in range(4)]
    with SolverSession(backend="threads", n_workers=2) as s:
        out = s.map(problems)
    assert len(out) == 4
    assert graph_template_cache.misses == 1
    assert graph_template_cache.hits == 3


def test_template_cache_lru_eviction_order():
    from repro.core.graph_cache import GraphTemplateCache, build_template
    from repro.core.merge import DCContext
    from repro.core.tasks import submit_dc
    from repro.core.tree import build_tree

    cache = GraphTemplateCache(maxsize=2)
    opts = DCOptions()

    def put(n):
        d, e = _problem(n=n)
        ctx = DCContext(d, e, opts)
        graph = TaskGraph()
        info = submit_dc(graph, ctx, build_tree(n, opts.minpart))
        key = (n,)
        cache.put(build_template(graph, info, key))
        return key

    ka, kb = put(70), put(80)
    assert cache.get(ka) is not None      # refresh A: B is now LRU
    put(90)                               # evicts B, not A
    assert cache.evictions == 1
    assert cache.get(ka) is not None
    assert cache.get(kb) is None
    st = cache.stats()
    assert st["evictions"] == 1 and st["size"] == 2


def test_cache_eviction_counter_reaches_telemetry():
    from repro.obs import solve_metrics, telemetry_block
    graph_template_cache.clear()
    old = graph_template_cache.maxsize
    graph_template_cache.maxsize = 1
    try:
        with SolverSession(backend="sequential") as s:
            for n in (60, 70):
                d, e = _problem(n=n)
                res = s.solve(d, e, full_result=True)
            m = solve_metrics(res, s.stats())
        assert m.counters.get("graph_cache.evictions") == 1
        assert m.counters.get("graph_cache.misses") == 2
        assert telemetry_block(m)["cache_evictions"] == 1
    finally:
        graph_template_cache.maxsize = old
        graph_template_cache.clear()


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

def test_submit_after_close_raises():
    d, e = _problem(n=60)
    s = SolverSession(backend="threads", n_workers=2)
    s.solve(d, e)
    s.close()
    with pytest.raises(SchedulerError, match="closed"):
        s.submit(d, e)
    s.close()                             # idempotent


@pytest.mark.parametrize("backend", ["threads"])
def test_handle_timeout_leaves_handle_reusable(backend):
    """``result(timeout=)``/``exception(timeout=)`` hitting the deadline
    raise ``SchedulerError`` but must not poison the handle — a later
    untimed wait returns the correct result — and must not count as a
    failure in the session metrics (the solve itself never failed)."""
    d, e = _problem(n=600)
    lam0, V0 = dc_eigh(d, e)
    with SolverSession(backend=backend, n_workers=2) as s:
        h = s.submit(d, e)
        with pytest.raises(SchedulerError, match="timed out"):
            h.result(timeout=1e-6)
        with pytest.raises(SchedulerError, match="timed out"):
            h.exception(timeout=1e-9)
        lam, V = h.result()               # untimed: blocks to completion
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)
        assert h.exception() is None
        assert h.done()
        assert s.metrics.failures == 0    # no phantom failure recorded
        assert s.metrics.solves == 1


def test_close_drains_outstanding_solves():
    problems = [_problem(seed=s) for s in range(4)]
    s = SolverSession(backend="threads", n_workers=2)
    handles = [s.submit(d, e) for d, e in problems]
    s.close()                             # waits, then stops the workers
    for h in handles:
        lam, V = h.result()
        assert lam.shape == (150,)


def test_failed_run_defers_completion_until_inflight_tasks_return():
    """A failed run's on_done (which recycles workspace buffers) must not
    fire while a task of that run is still executing on another worker."""
    from repro.runtime.task import DataHandle, OUTPUT
    executing = [0]
    release = threading.Event()

    def slow():
        executing[0] += 1
        try:
            release.wait(5.0)
        finally:
            executing[0] -= 1

    def boom():
        time.sleep(0.05)        # let `slow` get onto the other worker
        raise RuntimeError("boom")

    g = TaskGraph()
    g.insert_task(slow, [(DataHandle(), OUTPUT)], name="slow")
    g.insert_task(boom, [(DataHandle(), OUTPUT)], name="boom")
    inflight_at_done = []
    pool = WorkerPool(n_workers=2)
    try:
        run = pool.submit(
            g, on_done=lambda r: inflight_at_done.append(executing[0]))
        time.sleep(0.3)         # boom failed; slow still holds a worker
        assert not run.wait(0)  # completion deferred, not signalled early
        release.set()
        assert run.wait(5.0)
        assert inflight_at_done == [0]
        with pytest.raises(TaskFailure, match="boom"):
            run.result(timeout=1.0)
    finally:
        release.set()
        pool.shutdown()


def test_shutdown_fails_stranded_runs_instead_of_hanging():
    """Queued-but-never-run tasks at shutdown fail their run with a
    typed error; a waiting result() raises instead of blocking forever."""
    from repro.runtime.task import DataHandle, OUTPUT
    started = threading.Event()
    release = threading.Event()

    def hold():
        started.set()
        release.wait(5.0)

    g1 = TaskGraph()
    g1.insert_task(hold, [(DataHandle(), OUTPUT)], name="hold")
    g2 = TaskGraph()
    g2.insert_task(lambda: None, [(DataHandle(), OUTPUT)], name="never")
    pool = WorkerPool(n_workers=1)
    run1 = pool.submit(g1)
    assert started.wait(5.0)
    run2 = pool.submit(g2)     # queued behind `hold` on the only worker
    closer = threading.Thread(target=pool.shutdown)
    closer.start()
    time.sleep(0.05)           # shutdown flag is set; worker still busy
    release.set()
    closer.join(timeout=10.0)
    assert not closer.is_alive()
    assert run1.result(timeout=5.0) is not None
    with pytest.raises(SchedulerError, match="shut down"):
        run2.result(timeout=5.0)


def test_worker_pool_rejects_submit_after_shutdown():
    pool = WorkerPool(n_workers=2)
    pool.shutdown()
    assert pool.closed
    with pytest.raises(SchedulerError):
        pool.submit(TaskGraph())
    pool.shutdown()                       # idempotent


def test_fuse_preserves_results():
    """TaskGraph.fuse of independent graphs runs like one graph."""
    problems = [_problem(n=90, seed=s) for s in range(3)]
    expected = [dc_eigh(d, e) for d, e in problems]
    from repro.core.merge import DCContext
    from repro.core.tasks import submit_dc
    from repro.core.tree import build_tree
    opts = DCOptions()
    ctxs, graphs = [], []
    for d, e in problems:
        ctx = DCContext(d, e, opts)
        g = TaskGraph()
        submit_dc(g, ctx, build_tree(d.shape[0], opts.minpart))
        ctxs.append(ctx)
        graphs.append(g)
    fused = TaskGraph.fuse(graphs)
    q = Quark("threads", n_workers=4)
    q.graph = fused
    q.barrier()
    for ctx, (lam0, V0) in zip(ctxs, expected):
        lam, V = ctx.result()
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


# ---------------------------------------------------------------------------
# Concurrent clients, faults and close() under load
# ---------------------------------------------------------------------------

def test_concurrent_clients_with_faults_and_close_under_load(tmp_path):
    """Four client threads submit six problems each to one threads
    session, with a fault injected on about half, while the session is
    closed under load.  Every handle resolves within an explicit
    timeout, the clients join, the workspace arena lends nothing out
    afterwards, and each failed solve's post-mortem bundle replays only
    its own run's events.  Explicit timeouts throughout: a hang fails
    the test instead of wedging the suite."""
    import json

    from repro.errors import ReproError

    d, e = _problem(n=200, seed=11)
    s = SolverSession(backend="threads", n_workers=2,
                      options=DCOptions(minpart=32))
    ref = s.solve(d, e, full_result=True)
    n_tasks = len(ref.graph.tasks)
    handles = []            # (handle, faulted task seq or None)
    rejected = []
    lock = threading.Lock()
    loaded = threading.Event()

    def client(c):
        for k in range(6):
            i = 6 * c + k
            opts = DCOptions(minpart=32, postmortem_dir=str(tmp_path))
            seq = None
            if i % 2 == 0:
                # A distinct faulted task per solve names its bundle.
                seq = 1 + (i // 2) * (n_tasks - 2) // 12
                opts = opts.with_(fault_injection=FaultSpec(task_seq=seq))
            try:
                h = s.submit(d, e, options=opts)
            except SchedulerError:
                rejected.append(i)          # submitted after close()
                continue
            with lock:
                handles.append((h, seq))
                if len(handles) >= 12:          # half the load is in
                    loaded.set()

    clients = [threading.Thread(target=client, args=(c,), daemon=True)
               for c in range(4)]
    for th in clients:
        th.start()
    assert loaded.wait(30.0)
    closer = threading.Thread(target=s.close, daemon=True)
    closer.start()
    for th in clients:
        th.join(timeout=60.0)
    closer.join(timeout=60.0)
    assert not any(th.is_alive() for th in clients), "a client hung"
    assert not closer.is_alive(), "close() hung"
    assert len(handles) + len(rejected) == 24

    failures = {}
    for h, seq in handles:
        try:
            lam, V = h.result(timeout=60.0)
        except ReproError as exc:
            assert h.done(), "a handle did not resolve within its timeout"
            assert isinstance(exc, TaskFailure) and exc.seq == seq
            failures[seq] = exc
        else:
            assert seq is None
            np.testing.assert_array_equal(lam, ref.lam)
            np.testing.assert_array_equal(V, ref.V)
    assert failures and len(failures) < len(handles)
    ws = s.stats()["workspace"]
    assert ws["owned_bytes"] == ws["free_bytes"]

    bundles = sorted(tmp_path.glob("postmortem-*.jsonl"))
    assert len(bundles) == len(failures)
    for path in bundles:
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        head, events = lines[0], lines[1:]
        exc = failures[head["error"]["task"]["seq"]]
        assert [(ev["name"], ev["task_seq"], ev["worker"], ev["t0"],
                 ev["t1"]) for ev in events if ev["kind"] == "task"] \
            == [(ev.name, ev.seq, ev.worker, ev.t_start, ev.t_end)
                for ev in sorted(exc.trace.events,
                                 key=lambda ev: (ev.t_start, ev.t_end,
                                                 ev.seq))]
