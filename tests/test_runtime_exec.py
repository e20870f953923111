"""Execution-backend tests: sequential, threads, and simulator."""

import threading

import pytest

from repro.core import DCContext, DCOptions, submit_dc
from repro.errors import InputError
from repro.matrices import test_matrix as table3_matrix
from repro.runtime import (INPUT, OUTPUT, INOUT,
                           DataHandle, Machine, Quark, SequentialScheduler,
                           SimulatedMachine, TaskGraph, TaskCost,
                           ThreadScheduler)


def build_chain_graph(results):
    """out = ((0 + 1) * 3) recorded via a shared list."""
    g = TaskGraph()
    h = DataHandle("x", payload=[0])

    def add1():
        h.payload[0] += 1

    def mul3():
        h.payload[0] *= 3

    def record():
        results.append(h.payload[0])

    g.insert_task(add1, [(h, INOUT)], name="add1")
    g.insert_task(mul3, [(h, INOUT)], name="mul3")
    g.insert_task(record, [(h, INPUT)], name="record")
    return g


@pytest.mark.parametrize("scheduler", [
    SequentialScheduler(),
    ThreadScheduler(1),
    ThreadScheduler(4),
    SimulatedMachine(),
])
def test_chain_semantics(scheduler):
    results = []
    trace = scheduler.run(build_chain_graph(results))
    assert results == [3]
    assert len(trace.events) == 3


def test_thread_scheduler_runs_independent_tasks_concurrently():
    g = TaskGraph()
    barrier = threading.Barrier(2, timeout=5)

    def wait_at_barrier():
        barrier.wait()  # deadlocks unless two tasks run simultaneously

    g.insert_task(wait_at_barrier, [(DataHandle(), OUTPUT)], name="a")
    g.insert_task(wait_at_barrier, [(DataHandle(), OUTPUT)], name="b")
    ThreadScheduler(2).run(g)  # would raise BrokenBarrierError if serialized


def test_thread_scheduler_respects_dependencies_under_contention():
    # A diamond executed many times: failures in dependency resolution
    # would surface as wrong final values.
    for _ in range(20):
        g = TaskGraph()
        h = DataHandle("x", payload=[0])
        a = DataHandle("a", payload=[0])
        b = DataHandle("b", payload=[0])

        def set_x():
            h.payload[0] = 2

        def left():
            a.payload[0] = h.payload[0] + 1

        def right():
            b.payload[0] = h.payload[0] * 5

        out = []

        def join():
            out.append(a.payload[0] + b.payload[0])

        g.insert_task(set_x, [(h, OUTPUT)])
        g.insert_task(left, [(h, INPUT), (a, OUTPUT)])
        g.insert_task(right, [(h, INPUT), (b, OUTPUT)])
        g.insert_task(join, [(a, INPUT), (b, INPUT)])
        ThreadScheduler(4).run(g)
        assert out == [13]


def test_thread_scheduler_propagates_exceptions():
    from repro.errors import TaskFailure

    g = TaskGraph()

    def boom():
        raise ValueError("kernel failed")

    g.insert_task(boom, [(DataHandle(), OUTPUT)], name="boom")
    with pytest.raises(TaskFailure, match="kernel failed") as ei:
        ThreadScheduler(2).run(g)
    # Task context plus the original exception chained as the cause.
    assert ei.value.task_name == "boom"
    assert isinstance(ei.value.__cause__, ValueError)


# ---------------------------------------------------------------------------
# Simulator timing semantics
# ---------------------------------------------------------------------------

def _flops_task(g, flops, name="k", handle=None):
    h = handle or DataHandle()
    return g.insert_task(lambda: None, [(h, OUTPUT)], name=name,
                         cost=TaskCost(flops=flops))


def test_simulator_parallel_speedup_compute_bound():
    m = Machine(n_cores=4, n_sockets=1, core_gflops=1.0,
                kernel_efficiency=1.0, task_overhead=0.0)
    # 8 independent 1-GFlop tasks on 4 cores -> 2 waves -> 2 seconds.
    g = TaskGraph()
    for _ in range(8):
        _flops_task(g, 1e9)
    tr = SimulatedMachine(m).run(g)
    assert tr.makespan == pytest.approx(2.0, rel=1e-9)

    g = TaskGraph()
    for _ in range(8):
        _flops_task(g, 1e9)
    tr1 = SimulatedMachine(m, n_workers=1).run(g)
    assert tr1.makespan == pytest.approx(8.0, rel=1e-9)


def test_simulator_chain_is_serialized():
    m = Machine(n_cores=4, n_sockets=1, core_gflops=1.0,
                kernel_efficiency=1.0, task_overhead=0.0)
    g = TaskGraph()
    h = DataHandle("x")
    for _ in range(5):
        g.insert_task(lambda: None, [(h, INOUT)], cost=TaskCost(flops=1e9))
    tr = SimulatedMachine(m).run(g)
    assert tr.makespan == pytest.approx(5.0, rel=1e-9)


def test_simulator_bandwidth_saturation():
    """Memory-bound tasks share socket bandwidth: with stream_bw = bw/4,
    speedup saturates at 4 per socket (paper Fig. 5, type-2 curve)."""
    m = Machine(n_cores=8, n_sockets=1, core_gflops=1.0,
                kernel_efficiency=1.0, socket_bw=4e9, stream_bw=1e9,
                task_overhead=0.0)
    def run(p):
        g = TaskGraph()
        for _ in range(8):
            g.insert_task(lambda: None, [(DataHandle(), OUTPUT)],
                          name="PermuteV", cost=TaskCost(bytes_moved=1e9))
        return SimulatedMachine(m, n_workers=p).run(g).makespan

    t1, t4, t8 = run(1), run(4), run(8)
    assert t1 == pytest.approx(8.0, rel=1e-6)
    assert t4 == pytest.approx(2.0, rel=1e-6)      # 4 streams saturate
    assert t8 == pytest.approx(2.0, rel=1e-6)      # no extra speedup
    # Two sockets recover bandwidth (cores 8..15 on socket 1).
    m2 = Machine(n_cores=16, n_sockets=2, core_gflops=1.0,
                 kernel_efficiency=1.0, socket_bw=4e9, stream_bw=1e9,
                 task_overhead=0.0)
    g = TaskGraph()
    for _ in range(8):
        g.insert_task(lambda: None, [(DataHandle(), OUTPUT)],
                      name="PermuteV", cost=TaskCost(bytes_moved=1e9))
    t16 = SimulatedMachine(m2).run(g).makespan
    assert t16 == pytest.approx(1.0, rel=1e-6)


def test_simulator_lazy_costs_see_predecessor_results():
    m = Machine(n_cores=2, n_sockets=1, core_gflops=1.0,
                kernel_efficiency=1.0, task_overhead=0.0)
    g = TaskGraph()
    h = DataHandle("k", payload={})

    def produce():
        h.payload["k"] = 3e9

    g.insert_task(produce, [(h, OUTPUT)], cost=TaskCost(flops=1e9))
    g.insert_task(lambda: None, [(h, INPUT)],
                  cost=lambda: TaskCost(flops=h.payload["k"]))
    tr = SimulatedMachine(m).run(g)
    assert tr.makespan == pytest.approx(4.0, rel=1e-9)


def test_simulator_is_deterministic():
    m = Machine()
    def build():
        g = TaskGraph()
        hs = [DataHandle() for _ in range(6)]
        for i, h in enumerate(hs):
            g.insert_task(lambda: None, [(h, OUTPUT)], name=f"k{i%3}",
                          cost=TaskCost(flops=1e8 * (i + 1)))
        join = DataHandle()
        g.insert_task(lambda: None,
                      [(h, INPUT) for h in hs] + [(join, OUTPUT)],
                      cost=TaskCost(flops=5e8))
        return g
    t1 = SimulatedMachine(m).run(build())
    t2 = SimulatedMachine(m).run(build())
    assert t1.makespan == t2.makespan
    assert [e.name for e in t1.events] == [e.name for e in t2.events]


def _permute_tasks(n_tasks, n_bytes):
    g = TaskGraph()
    for _ in range(n_tasks):
        g.insert_task(lambda: None, [(DataHandle(), OUTPUT)],
                      name="PermuteV", cost=TaskCost(bytes_moved=n_bytes))
    return g


@pytest.mark.parametrize("n_workers", [0, 17, 64])
def test_simulator_workers_bounded_by_cores(n_workers):
    """A worker past ``n_cores`` would sit on a socket the machine does
    not have, with a socket's full bandwidth of its own."""
    with pytest.raises(InputError, match=rf"n_workers={n_workers}\b.*16"):
        SimulatedMachine(Machine(), n_workers=n_workers)


def test_simulator_all_cores_share_the_sockets_bandwidth():
    # 64 independent 1 GB copies on all 16 cores of the two 40 GB/s
    # sockets: 80 GB/s in aggregate, the same as the default worker count.
    m = Machine(task_overhead=0.0)
    full = SimulatedMachine(m, n_workers=m.n_cores).run(
        _permute_tasks(64, 1e9))
    assert full.n_workers == 16
    assert full.makespan == pytest.approx(64e9 / 80e9, rel=1e-9)
    assert SimulatedMachine(m).run(_permute_tasks(64, 1e9)).makespan \
        == full.makespan


@pytest.mark.parametrize("jobz", ["V", "N"])
@pytest.mark.parametrize("mtype", [2, 4])
def test_simulator_replay_matches_executing_run(mtype, jobz):
    """``execute=False`` (how the figure benches replay a solved graph)
    gives the executing run's schedule and runs no payload."""
    d, e = table3_matrix(mtype, 700, seed=0)
    graph = TaskGraph()
    submit_dc(graph, DCContext(d, e, DCOptions(jobz=jobz)))
    executed = SimulatedMachine().run(graph)

    calls = []

    def counting(func):
        def wrapper(*args):
            calls.append(func)
            return func(*args)
        return wrapper

    for task in graph.tasks:
        task.func = counting(task.func)
    replayed = SimulatedMachine(execute=False).run(graph)
    assert calls == []

    def schedule(trace):
        return [(ev.name, ev.worker, ev.t_start, ev.t_end)
                for ev in trace.events]
    assert len(executed.events) == len(graph.tasks)
    assert schedule(replayed) == schedule(executed)


# ---------------------------------------------------------------------------
# Quark facade
# ---------------------------------------------------------------------------

def test_quark_barrier_executes_and_resets():
    q = Quark("sequential")
    h = q.new_handle("x", payload=[0])
    q.insert_task(lambda: h.payload.__setitem__(0, 7), [(h, OUTPUT)])
    trace = q.barrier()
    assert h.payload[0] == 7
    assert len(trace.events) == 1
    assert q.graph.n_tasks == 0  # fresh graph after barrier


def test_quark_simulated_defaults_to_paper_machine():
    q = Quark("simulated")
    assert q.n_workers == 16
    h = q.new_handle()
    q.insert_task(lambda: None, [(h, OUTPUT)], cost=TaskCost(flops=1.0))
    tr = q.barrier()
    assert tr.n_workers == 16


@pytest.mark.parametrize("backend", ["bogus"])
def test_quark_rejects_unknown_backend_at_construction(backend):
    # Regression: an unknown backend was accepted here and only failed
    # at barrier(), with a plain ValueError, after tasks were inserted.
    with pytest.raises(InputError, match="backend"):
        Quark(backend)
