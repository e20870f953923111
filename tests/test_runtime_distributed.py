"""Tests for the distributed-memory prototype (repro.runtime.distributed)."""

import numpy as np
import pytest

from repro.core import DCContext, DCOptions, submit_dc
from repro.runtime import (ClusterMachine, DataHandle, INPUT, Machine,
                           Network, OUTPUT, TaskCost,
                           TaskGraph, tree_placement)


def test_single_node_matches_basic_expectations():
    g = TaskGraph()
    for _ in range(8):
        g.insert_task(lambda: None, [(DataHandle(), OUTPUT)],
                      cost=TaskCost(flops=1e9))
    m = Machine(n_cores=4, n_sockets=1, core_gflops=1.0,
                kernel_efficiency=1.0, task_overhead=0.0)
    cm = ClusterMachine(n_nodes=1, machine=m)
    tr = cm.run(g)
    assert tr.makespan == pytest.approx(2.0, rel=1e-9)
    assert cm.n_messages == 0


def test_remote_reads_charge_the_network():
    def build():
        g = TaskGraph()
        h = DataHandle("x")
        g.insert_task(lambda: None, [(h, OUTPUT)], name="produce",
                      cost=TaskCost(bytes_moved=8e8), tag=(0, 10))
        g.insert_task(lambda: None, [(h, INPUT)], name="consume",
                      cost=TaskCost(flops=1e6), tag=(900, 1000))
        return g

    m = Machine(task_overhead=0.0)
    slow = Network(alpha=0.0, beta=1.0 / 1e8)
    fast = Network(alpha=0.0, beta=1.0 / 1e13)
    place = tree_placement(1000, 2)
    cm_slow = ClusterMachine(2, m, slow, placement=place)
    t_slow = cm_slow.run(build()).makespan
    cm_fast = ClusterMachine(2, m, fast, placement=place)
    t_fast = cm_fast.run(build()).makespan
    assert cm_slow.n_messages == 1
    assert cm_slow.bytes_on_wire == pytest.approx(8e8)
    assert t_slow > t_fast * 2


def test_affinity_placement_avoids_communication():
    # Without forced placement the consumer runs where the data lives.
    g = TaskGraph()
    h = DataHandle("x")
    g.insert_task(lambda: None, [(h, OUTPUT)],
                  cost=TaskCost(bytes_moved=8e8))
    g.insert_task(lambda: None, [(h, INPUT)], cost=TaskCost(flops=1e6))
    cm = ClusterMachine(2, Machine())
    cm.run(g)
    assert cm.n_messages == 0


def test_dependencies_respected_across_nodes():
    order = []
    g = TaskGraph()
    h = DataHandle("x")
    for i in range(6):
        g.insert_task(lambda i=i: order.append(i),
                      [(h, INPUT if i else OUTPUT)],
                      cost=TaskCost(flops=1e6), tag=(i * 100, 600))
    ClusterMachine(3, Machine(), placement=tree_placement(600, 3)).run(g)
    assert order[0] == 0
    assert sorted(order) == list(range(6))


def test_dc_solve_on_cluster_correct():
    rng = np.random.default_rng(0)
    n = 300
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    ctx = DCContext(d, e, DCOptions(minpart=64, nb=32))
    g = TaskGraph()
    submit_dc(g, ctx)
    cm = ClusterMachine(2, Machine(), placement=tree_placement(n, 2))
    cm.run(g)
    lam, V = ctx.result()
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.max(np.abs(T @ V - V * lam[None, :])) < 1e-12
    # The merge tree forces real inter-node traffic at the top merges.
    assert cm.n_messages > 0


def test_invalid_nodes():
    with pytest.raises(ValueError):
        ClusterMachine(0)
