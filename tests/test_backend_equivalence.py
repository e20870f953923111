"""Cross-backend bitwise equivalence and scheduler stress tests.

The paper's task-flow formulation promises that scheduling is invisible
to the numerics: any topological execution order produces bit-identical
results.  These tests pin that promise across the sequential, threaded
(one shared ready queue) and simulated backends, with and without
eigenpair subsets, extra workspace, and the DAG template cache — plus a
randomized stress test of the thread scheduler itself.
"""

import threading

import numpy as np
import pytest

from repro import dc_eigh, dc_eigh_many
from repro.core import DCOptions
from repro.core.graph_cache import graph_template_cache
from repro.matrices import test_matrix as table3_matrix
from repro.runtime import TaskGraph, ThreadScheduler
from repro.runtime.task import Task


def _solve(d, e, backend, n_workers=None, **kw):
    return dc_eigh(d, e, backend=backend, n_workers=n_workers, **kw)


@pytest.mark.parametrize("mtype", [1, 2, 3, 4, 5])
def test_backends_bitwise_identical_table3(mtype):
    d, e = table3_matrix(mtype, 150, seed=11)
    lam0, V0 = _solve(d, e, "sequential")
    for backend, workers in (("threads", 2), ("threads", 4),
                             ("threads", 8), ("simulated", 4)):
        lam, V = _solve(d, e, backend, workers)
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


@pytest.mark.parametrize("mtype", [2, 4])
def test_backends_bitwise_identical_with_subset(mtype):
    d, e = table3_matrix(mtype, 130, seed=12)
    subset = np.arange(20, 55)
    lam0, V0 = _solve(d, e, "sequential", subset=subset)
    assert lam0.shape == (35,) and V0.shape == (130, 35)
    for backend, workers in (("threads", 2), ("threads", 4),
                             ("threads", 8), ("simulated", 4)):
        lam, V = _solve(d, e, backend, workers, subset=subset)
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


@pytest.mark.parametrize("extra_workspace", [False, True])
def test_backends_bitwise_identical_workspace_modes(extra_workspace):
    d, e = table3_matrix(3, 140, seed=13)
    opts = DCOptions(extra_workspace=extra_workspace)
    lam0, V0 = _solve(d, e, "sequential", options=opts)
    for backend, workers in (("threads", 4), ("threads", 8),
                             ("simulated", 4)):
        lam, V = _solve(d, e, backend, workers, options=opts)
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


def test_merge_stats_deterministic_across_backends():
    # Satellite regression: ctx.merge_stats used to be appended in task
    # completion order, which is nondeterministic under threads.  Now it
    # is keyed by node span and returned sorted by tree level.
    d, e = table3_matrix(4, 200, seed=14)
    res_seq = dc_eigh(d, e, full_result=True)
    res_thr = dc_eigh(d, e, backend="threads", n_workers=8,
                      full_result=True)
    spans_seq = [(s.lo, s.hi) for s in res_seq.info.ctx.merge_stats]
    spans_thr = [(s.lo, s.hi) for s in res_thr.info.ctx.merge_stats]
    assert spans_seq == spans_thr
    # Secular sweep counts are reduced per-panel (race-free) and must
    # agree between backends.
    sweeps_seq = [s.secular_sweeps for s in res_seq.info.ctx.merge_stats]
    sweeps_thr = [s.secular_sweeps for s in res_thr.info.ctx.merge_stats]
    assert sweeps_seq == sweeps_thr
    assert sum(sweeps_seq) > 0


@pytest.mark.parametrize("backend,workers", [("sequential", 1),
                                             ("threads", 4),
                                             ("simulated", 4)])
def test_backends_bitwise_identical_with_service_layer(tmp_path, backend,
                                                       workers):
    # The live-observability layer (per-solve trace folded into the
    # session metrics, postmortem_dir configured) and the telemetry view
    # must not perturb a single bit of the results on any backend.
    from repro.core.session import SolverSession
    from repro.obs import solve_metrics

    d, e = table3_matrix(4, 150, seed=18)
    lam0, V0 = _solve(d, e, "sequential")
    opts = DCOptions(postmortem_dir=str(tmp_path))
    with SolverSession(backend=backend, n_workers=workers,
                       options=opts) as s:
        res = s.solve(d, e, full_result=True)
        m = solve_metrics(res, s.stats())
        np.testing.assert_array_equal(lam0, res.lam)
        np.testing.assert_array_equal(V0, res.V)
        # The session digests and the view both saw the solve...
        assert s.metrics.digest_stats()["deflation_ratio"]["count"] > 0
        assert m.counters["merge.count"] == len(res.info.ctx.merge_stats)
    # ...and a healthy solve never writes a post-mortem bundle.
    assert not list(tmp_path.glob("*.jsonl"))


# ---------------------------------------------------------------------------
# DAG template cache


def test_reuse_graph_bitwise_identical():
    d, e = table3_matrix(4, 170, seed=15)
    lam0, V0 = dc_eigh(d, e)
    graph_template_cache.clear()
    opts = DCOptions(reuse_graph=True)
    lam1, V1 = dc_eigh(d, e, options=opts)                  # cache miss
    lam2, V2 = dc_eigh(d, e, options=opts)                  # cache hit
    lam3, V3 = dc_eigh(d, e, options=opts, backend="threads",
                       n_workers=4)                         # hit, threaded
    assert graph_template_cache.misses >= 1
    assert graph_template_cache.hits >= 2
    for lam, V in ((lam1, V1), (lam2, V2), (lam3, V3)):
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


def test_reuse_graph_with_subset_bitwise_identical():
    d, e = table3_matrix(2, 150, seed=16)
    subset = np.arange(0, 30)
    lam0, V0 = dc_eigh(d, e, subset=subset)
    graph_template_cache.clear()
    opts = DCOptions(reuse_graph=True)
    for _ in range(2):
        lam, V = dc_eigh(d, e, options=opts, subset=subset)
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


def test_dc_eigh_many_matches_individual_solves():
    rng = np.random.default_rng(17)
    problems = []
    for _ in range(4):
        d = rng.normal(size=120)
        e = rng.normal(size=119)
        problems.append((d, e))
    graph_template_cache.clear()
    results = dc_eigh_many(problems)
    assert len(results) == 4
    # Same shape => one template build, three (or more) cache hits.
    assert graph_template_cache.misses == 1
    assert graph_template_cache.hits == 3
    for (d, e), (lam, V) in zip(problems, results):
        lam0, V0 = dc_eigh(d, e)
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


# ---------------------------------------------------------------------------
# Thread scheduler stress


def _random_dag(rng, n_tasks, record, lock):
    """A random DAG whose tasks log their own completion order."""
    graph = TaskGraph()
    tasks = []
    for i in range(n_tasks):
        def payload(i=i):
            with lock:
                record.append(i)
        t = Task(payload, (), name=f"t{i}",
                 priority=int(rng.integers(0, 5)))
        graph.submit(t)
        tasks.append(t)
    # Random forward edges (graph.submit gave every task n_deps == 0).
    for i in range(1, n_tasks):
        for j in rng.choice(i, size=min(i, int(rng.integers(0, 4))),
                            replace=False):
            tasks[j].add_successor(tasks[i])
    return graph, tasks


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_work_stealing_respects_topological_order(seed):
    rng = np.random.default_rng(seed)
    for trial in range(50):            # 4 seeds x 50 = 200 random DAGs
        n_tasks = int(rng.integers(1, 60))
        record: list[int] = []
        lock = threading.Lock()
        graph, tasks = _random_dag(rng, n_tasks, record, lock)
        n_workers = int(rng.choice([2, 4, 8]))
        trace = ThreadScheduler(n_workers=n_workers).run(graph)

        assert sorted(record) == list(range(n_tasks))
        pos = {i: p for p, i in enumerate(record)}
        for i, t in enumerate(tasks):
            for s in t.successors:
                si = int(s.name[1:])
                assert pos[i] < pos[si], (
                    f"seed={seed} trial={trial}: task {si} ran before "
                    f"its dependency {i}")
        assert len(trace.events) == n_tasks


def test_thread_scheduler_propagates_task_errors():
    graph = TaskGraph()

    def boom():
        raise RuntimeError("kernel failed")

    graph.submit(Task(boom, (), name="boom"))
    with pytest.raises(RuntimeError, match="kernel failed"):
        ThreadScheduler(n_workers=4).run(graph)
