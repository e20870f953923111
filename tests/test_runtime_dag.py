"""Dependency-analysis tests for the task-flow runtime (repro.runtime.dag)."""

import pytest

from repro.errors import GraphError
from repro.runtime import (INPUT, OUTPUT, INOUT, GATHERV,
                           DataHandle, TaskGraph)


def edges(graph):
    return {(t.uid, s.uid) for t in graph.tasks for s in t.successors}


def noop():
    return None


def test_raw_dependency():
    g = TaskGraph()
    h = DataHandle("x")
    w = g.insert_task(noop, [(h, OUTPUT)], name="w")
    r = g.insert_task(noop, [(h, INPUT)], name="r")
    assert (w.uid, r.uid) in edges(g)
    assert r.n_deps == 1


def test_war_and_waw_dependencies():
    g = TaskGraph()
    h = DataHandle("x")
    w1 = g.insert_task(noop, [(h, OUTPUT)])
    r1 = g.insert_task(noop, [(h, INPUT)])
    r2 = g.insert_task(noop, [(h, INPUT)])
    w2 = g.insert_task(noop, [(h, INOUT)])
    e = edges(g)
    assert (w1.uid, w2.uid) in e  # WAW
    assert (r1.uid, w2.uid) in e and (r2.uid, w2.uid) in e  # WAR
    assert (r1.uid, r2.uid) not in e  # readers are concurrent


def test_independent_handles_no_edges():
    g = TaskGraph()
    a, b = DataHandle("a"), DataHandle("b")
    g.insert_task(noop, [(a, INOUT)])
    g.insert_task(noop, [(b, INOUT)])
    assert g.n_edges == 0


def test_gatherv_writers_are_concurrent():
    g = TaskGraph()
    h = DataHandle("V")
    pre = g.insert_task(noop, [(h, OUTPUT)], name="init")
    g1 = g.insert_task(noop, [(h, GATHERV)], name="p0")
    g2 = g.insert_task(noop, [(h, GATHERV)], name="p1")
    g3 = g.insert_task(noop, [(h, GATHERV)], name="p2")
    join = g.insert_task(noop, [(h, INOUT)], name="join")
    e = edges(g)
    # Every GATHERV writer depends on the pre-group writer...
    for gt in (g1, g2, g3):
        assert (pre.uid, gt.uid) in e
    # ...but not on each other...
    assert not any((a.uid, b.uid) in e
                   for a in (g1, g2, g3) for b in (g1, g2, g3))
    # ...and the join waits for the whole group.
    for gt in (g1, g2, g3):
        assert (gt.uid, join.uid) in e
    assert join.n_deps == 3


def test_gatherv_group_closed_by_reader():
    g = TaskGraph()
    h = DataHandle("V")
    g1 = g.insert_task(noop, [(h, GATHERV)])
    g2 = g.insert_task(noop, [(h, GATHERV)])
    r = g.insert_task(noop, [(h, INPUT)])
    # A new GATHERV after the reader starts a fresh group that must wait
    # for the reader (WAR) and for the previous group (WAW).
    g3 = g.insert_task(noop, [(h, GATHERV)])
    e = edges(g)
    assert (g1.uid, r.uid) in e and (g2.uid, r.uid) in e
    assert (r.uid, g3.uid) in e
    assert (g1.uid, g3.uid) in e and (g2.uid, g3.uid) in e


def test_gatherv_keeps_join_dependency_count_constant():
    """The point of GATHERV (paper Sec. IV): panel tasks have O(1) deps."""
    g = TaskGraph()
    V = DataHandle("V")
    defl = DataHandle("defl")
    g.insert_task(noop, [(defl, OUTPUT), (V, INOUT)], name="deflate")
    panels = [g.insert_task(noop, [(defl, INPUT), (V, GATHERV)], name="p")
              for _ in range(64)]
    join = g.insert_task(noop, [(V, INOUT)], name="reduce")
    for p in panels:
        assert p.n_deps == 1  # only the deflation task (dedup across handles)
    assert join.n_deps == 64


def test_duplicate_edges_are_collapsed():
    g = TaskGraph()
    a, b = DataHandle("a"), DataHandle("b")
    t1 = g.insert_task(noop, [(a, OUTPUT), (b, OUTPUT)])
    t2 = g.insert_task(noop, [(a, INPUT), (b, INPUT)])
    assert t2.n_deps == 1
    assert len(t1.successors) == 1


def test_levels_and_counts():
    g = TaskGraph()
    h = DataHandle("x")
    g.insert_task(noop, [(h, OUTPUT)], name="a")
    g.insert_task(noop, [(h, INOUT)], name="b")
    g.insert_task(noop, [(h, INPUT)], name="c")
    g.insert_task(noop, [(h, INPUT)], name="c")
    levels = g.levels()
    assert [len(l) for l in levels] == [1, 1, 2]
    assert g.kernel_counts() == {"a": 1, "b": 1, "c": 2}


def test_critical_path_cost():
    g = TaskGraph()
    h = DataHandle("x")
    g.insert_task(noop, [(h, OUTPUT)], name="a")
    g.insert_task(noop, [(h, INOUT)], name="b")
    # An independent task that is longer than the chain.
    g.insert_task(noop, [(DataHandle(), OUTPUT)], name="long")
    dur = {"a": 1.0, "b": 2.0, "long": 10.0}
    assert g.critical_path_cost(lambda t: dur[t.name]) == 10.0
    dur["long"] = 0.5
    assert g.critical_path_cost(lambda t: dur[t.name]) == 3.0


def test_handle_reuse_across_graphs():
    h = DataHandle("x")
    g1 = TaskGraph()
    g1.insert_task(noop, [(h, OUTPUT)])
    g2 = TaskGraph()
    t = g2.insert_task(noop, [(h, INPUT)])
    # Fresh graph resets tracking: no dangling dependency on the old task.
    assert t.n_deps == 0


def test_backward_edge_rejected_at_add_successor():
    # Edges must point forward in submission order, so a graph is
    # acyclic as built and no scheduler re-checks it per run.
    g = TaskGraph()
    a = g.insert_task(noop, [(DataHandle(), OUTPUT)], name="a")
    b = g.insert_task(noop, [(DataHandle(), OUTPUT)], name="b")
    with pytest.raises(GraphError, match="forward"):
        b.add_successor(a)
    with pytest.raises(GraphError):
        a.add_successor(a)
    assert b.successors == [] and a.successors == [] and a.n_deps == 0
    a.add_successor(b)
    assert b.n_deps == 1
