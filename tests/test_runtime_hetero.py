"""Tests for the heterogeneous machine extension (repro.runtime.hetero)."""

import numpy as np

from repro.core import DCContext, DCOptions, submit_dc
from repro.runtime import (Accelerator, DataHandle, GPU_OFFLOAD_POLICY,
                           HeteroMachine, INPUT, Machine, OUTPUT,
                           SequentialScheduler, SimulatedMachine, TaskCost,
                           TaskGraph)


def test_offload_policy_matches_paper_ref16():
    # [16]: "both the secular equation and the GEMMs are computed on GPUs"
    assert "LAED4" in GPU_OFFLOAD_POLICY
    assert "UpdateVect" in GPU_OFFLOAD_POLICY
    assert "PermuteV" not in GPU_OFFLOAD_POLICY


def test_hetero_respects_dependencies():
    g = TaskGraph()
    h = DataHandle("x", payload=[0])
    order = []
    for i in range(5):
        g.insert_task(lambda i=i: order.append(i), [(h, OUTPUT if i == 0
                                                     else INPUT)],
                      name="UpdateVect" if i % 2 else "PermuteV",
                      cost=TaskCost(flops=1e6))
    HeteroMachine(Machine(), execute=True).run(g)
    assert order[0] == 0          # the writer runs first
    assert sorted(order) == list(range(5))


def test_gpu_accelerates_offloadable_kernels():
    g = TaskGraph()
    for i in range(32):
        g.insert_task(lambda: None, [(DataHandle(), OUTPUT)],
                      name="UpdateVect", cost=TaskCost(flops=5e9))
    cpu = SimulatedMachine(Machine(), n_workers=16, execute=False).run(g)
    g2 = TaskGraph()
    for i in range(32):
        g2.insert_task(lambda: None, [(DataHandle(), OUTPUT)],
                       name="UpdateVect", cost=TaskCost(flops=5e9))
    het = HeteroMachine(Machine(), accelerators=1,
                        accel=Accelerator(gflops=900, n_streams=4),
                        execute=False).run(g2)
    # A 900-GFlop accelerator plus the host beats 16 18-GFlop cores.
    assert het.makespan < cpu.makespan


def test_transfer_cost_charged_on_crossing():
    slow_pcie = Accelerator(gflops=900, n_streams=2, pcie_bw=1e7)
    fast_pcie = Accelerator(gflops=900, n_streams=2, pcie_bw=1e12)

    def build():
        g = TaskGraph()
        h = DataHandle("V")
        # Host produces data, GPU kernel consumes it, host consumes back.
        g.insert_task(lambda: None, [(h, OUTPUT)], name="PermuteV",
                      cost=TaskCost(bytes_moved=5e8))
        g.insert_task(lambda: None, [(h, INPUT)], name="UpdateVect",
                      cost=TaskCost(flops=1e6))
        return g

    t_slow = HeteroMachine(Machine(), accel=slow_pcie,
                           execute=False).run(build()).makespan
    t_fast = HeteroMachine(Machine(), accel=fast_pcie,
                           execute=False).run(build()).makespan
    assert t_slow > t_fast * 2


def test_dc_on_hetero_machine_correct_and_faster():
    rng = np.random.default_rng(0)
    n = 400
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    ctx = DCContext(d, e, DCOptions(minpart=64, nb=32))
    g = TaskGraph()
    submit_dc(g, ctx)
    SequentialScheduler().run(g)
    t_cpu = SimulatedMachine(Machine(), n_workers=16,
                             execute=False).run(g).makespan
    t_het = HeteroMachine(Machine(), execute=False).run(g).makespan
    assert t_het < t_cpu          # offload helps on GEMM-heavy solves
    lam, V = ctx.result()
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.max(np.abs(T @ V - V * lam[None, :])) < 1e-12


def test_hetero_trace_well_formed():
    g = TaskGraph()
    hs = [DataHandle() for _ in range(8)]
    for i, h in enumerate(hs):
        g.insert_task(lambda: None, [(h, OUTPUT)],
                      name="UpdateVect" if i % 2 else "STEDC",
                      cost=TaskCost(flops=1e8 * (i + 1)))
    m = Machine()
    het = HeteroMachine(m, accelerators=1)
    tr = het.run(g)
    assert len(tr.events) == 8
    assert tr.n_workers == m.n_cores + het.n_accel_streams
    for ev in tr.events:
        assert ev.t_end >= ev.t_start >= 0.0
