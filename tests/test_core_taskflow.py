"""Structural tests of the D&C task DAG (repro.core.tasks): the properties
the paper claims in Sec. IV — matrix-independent DAG, O(1) dependencies
per panel task via GATHERV, level overlap, Fig. 2 structure."""

import numpy as np

from repro.core import DCContext, DCOptions, submit_dc
from repro.runtime import TaskGraph, SequentialScheduler


def build_graph(n=1000, minpart=300, nb=500, seed=0, d=None, e=None, **kw):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) if d is None else d
    e = rng.normal(size=n - 1) if e is None else e
    ctx = DCContext(d, e, DCOptions(minpart=minpart, nb=nb, **kw))
    g = TaskGraph()
    info = submit_dc(g, ctx)
    return g, ctx, info


def test_fig2_task_census():
    """The Fig. 2 scenario: n=1000, minpart=300, nb=500."""
    g, ctx, info = build_graph()
    counts = g.kernel_counts()
    # Four leaves of 250.
    assert counts["STEDC"] == 4
    assert counts["LASET"] == 4
    # Three merges: two of 500 (1 panel each) and the root 1000 (2 panels).
    assert counts["Compute_deflation"] == 3
    assert counts["ReduceW"] == 3
    assert counts["LAED4"] == 1 + 1 + 2
    assert counts["PermuteV"] == 4
    assert counts["UpdateVect"] == 4
    assert counts["ComputeVect"] == 4
    assert counts["ComputeLocalW"] == 4
    assert counts["CopyBackDeflated"] == 4
    assert counts["ScaleT"] == 1 and counts["ScaleBack"] == 1
    # SortEigenvectors: 1 join + ceil(1000/500) panels.
    assert counts["SortEigenvectors"] == 3
    g.validate_acyclic()


def test_dag_is_matrix_independent():
    """Same sizes, wildly different matrices -> identical task DAG."""
    g1, _, _ = build_graph(seed=1)
    d = np.ones(1000)
    e = np.full(999, 1e-15)  # near-total deflation
    g2, _, _ = build_graph(d=d, e=e)
    assert g1.kernel_counts() == g2.kernel_counts()
    assert g1.n_edges == g2.n_edges
    assert [t.name for t in g1.tasks] == [t.name for t in g2.tasks]
    assert [[s.seq for s in t.successors] for t in g1.tasks] == \
           [[s.seq for s in t.successors] for t in g2.tasks]


def test_panel_tasks_have_constant_declared_dependencies():
    """The point of GATHERV (paper Sec. IV): the number of *declared*
    data accesses the runtime must track per task is constant in n/nb —
    panel handles plus one GATHERV on the full matrix — instead of one
    dependency per panel (Θ(n/nb) tracking complexity)."""
    for nb, n in ((16, 512), (8, 512)):
        g, _, _ = build_graph(n=n, minpart=256, nb=nb)
        for t in g.tasks:
            if t.name in ("PermuteV", "LAED4", "ComputeLocalW",
                          "ComputeVect", "UpdateVect",
                          "CopyBackDeflated", "ApplyGivens"):
                assert len(t.accesses) <= 5, (t.name, len(t.accesses))
            if t.name in ("Compute_deflation", "ReduceW"):
                assert len(t.accesses) <= 3, (t.name, len(t.accesses))
        # Producer-side panel tasks additionally have O(1) incoming edges.
        for t in g.tasks:
            if t.name in ("PermuteV", "LAED4", "ComputeLocalW"):
                assert t.n_deps <= 8, (t.name, t.n_deps)


def test_join_tasks_wait_for_all_panels():
    g, _, _ = build_graph(n=512, minpart=256, nb=16)
    npan = 512 // 16
    reduce_ws = [t for t in g.tasks if t.name == "ReduceW"
                 and t.tag == (0, 512)]
    assert len(reduce_ws) == 1
    # ReduceW of the root waits for all of its ComputeLocalW panels.
    assert reduce_ws[0].n_deps >= npan


def test_independent_merges_overlap_without_barrier():
    """Merges of different branches share no path (Fig. 3(c) freedom)."""
    g, _, _ = build_graph(n=1000, minpart=300, nb=500)
    # Collect per-merge Compute_deflation tasks.
    defl = {t.tag: t for t in g.tasks if t.name == "Compute_deflation"}
    left, right = defl[(0, 500)], defl[(500, 1000)]

    def reachable(a, b):
        seen, stack = set(), [a]
        while stack:
            t = stack.pop()
            if t is b:
                return True
            for s in t.successors:
                if s.uid not in seen:
                    seen.add(s.uid)
                    stack.append(s)
        return False

    assert not reachable(left, right)
    assert not reachable(right, left)
    # But both reach the root merge.
    root = defl[(0, 1000)]
    assert reachable(left, root) and reachable(right, root)


def test_level_barrier_serializes_levels():
    g, _, _ = build_graph(n=1000, minpart=150, nb=500, level_barrier=True)
    assert g.kernel_counts()["LevelBarrier"] == 3
    defl = {t.tag: t for t in g.tasks if t.name == "Compute_deflation"}

    def reachable(a, b):
        seen, stack = set(), [a]
        while stack:
            t = stack.pop()
            if t is b:
                return True
            for s in t.successors:
                if s.uid not in seen:
                    seen.add(s.uid)
                    stack.append(s)
        return False

    # With the barrier, a level-0 merge of the LEFT branch now reaches the
    # level-1 merge of the RIGHT branch.
    assert reachable(defl[(0, 250)], defl[(500, 1000)])


def test_fork_join_serializes_non_gemm():
    g, _, _ = build_graph(n=400, minpart=100, nb=50, fork_join=True,
                          level_barrier=True)
    def reachable(a, b):
        seen, stack = set(), [a]
        while stack:
            t = stack.pop()
            if t is b:
                return True
            for s in t.successors:
                if s.uid not in seen:
                    seen.add(s.uid)
                    stack.append(s)
        return False

    # In fork/join mode LAED4 panels of the same merge are serialized
    # (through the serial token, possibly via intermediate tasks).
    laed4 = [t for t in g.tasks if t.name == "LAED4" and t.tag == (0, 400)]
    assert len(laed4) == 8
    for a, b in zip(laed4, laed4[1:]):
        assert reachable(a, b)
    # UpdateVect panels of one merge are NOT chained to each other: the
    # GEMMs are the parallel-BLAS region of the fork/join model.
    upd = [t for t in g.tasks if t.name == "UpdateVect" and t.tag == (0, 400)]
    assert len(upd) == 8
    assert not any(reachable(a, b) for a in upd for b in upd if a is not b)


def test_extra_workspace_removes_join_edges():
    g_no, _, _ = build_graph(n=400, minpart=200, nb=50,
                             extra_workspace=False)
    g_yes, _, _ = build_graph(n=400, minpart=200, nb=50,
                              extra_workspace=True)
    deps_no = {t.seq: t.n_deps for t in g_no.tasks if t.name == "LAED4"}
    deps_yes = {t.seq: t.n_deps for t in g_yes.tasks if t.name == "LAED4"}
    # Without extra workspace LAED4 additionally waits on all PermuteV.
    assert sum(deps_no.values()) > sum(deps_yes.values())
    assert g_no.n_edges > g_yes.n_edges


def test_graph_executes_and_matches_reference():
    g, ctx, info = build_graph(n=300, minpart=80, nb=64, seed=42)
    SequentialScheduler().run(g)
    lam, V = ctx.result()
    T = np.diag(ctx.d_in) + np.diag(ctx.e_in, 1) + np.diag(ctx.e_in, -1)
    assert np.max(np.abs(T @ V - V * lam[None, :])) < 1e-12
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(T), atol=1e-12)


def test_deflation_dependent_work_but_fixed_tasks():
    """High deflation turns surplus panel tasks into no-ops, not fewer
    tasks (execution check of the matrix-independent DAG)."""
    n = 256
    d = np.ones(n)
    e = np.full(n - 1, 1e-15)
    g, ctx, info = build_graph(n=n, d=d, e=e, minpart=64, nb=32)
    SequentialScheduler().run(g)
    st = info.states[(0, n)]
    assert st.defl.k <= 2   # near-total deflation
    lam, V = ctx.result()
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.max(np.abs(T @ V - V * lam[None, :])) < 1e-12
