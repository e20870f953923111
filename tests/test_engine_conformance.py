"""Engine conformance: one behavioural contract, four executors.

Every generic-graph execution substrate — sequential, threads, worker
pool and the simulated machine — runs on the shared engine
(:mod:`repro.runtime.engine`).  This suite pins the contract the engine
owns, parameterized over all of them:

* priority order on a crafted DAG (single-worker configs so the ready
  order is observable in the trace);
* first-failure cancellation: an injected fault surfaces as
  :class:`~repro.errors.TaskFailure` with the faulted task's ``seq``,
  and no dependent task runs after it;
* ``nth``-match fault determinism: the same :class:`FaultSpec` kills
  the same task on every backend;
* the run's event log: one trace event per executed task on every
  substrate, including the virtual machine, and a failed run's partial
  trace reaches the caller on the raised error;
* run isolation: two concurrently-submitted pool runs do not share
  failure state;
* the privacy boundary: no runtime module imports another runtime
  module's underscore-private names (engine.py is the only shared
  internals surface).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.errors import TaskFailure
from repro.runtime import (
    INOUT, INPUT, DataHandle, FaultInjector, FaultSpec, Machine,
    SequentialScheduler, SimulatedMachine, TaskGraph, ThreadScheduler,
    WorkerPool,
)

RUNTIME_DIR = (Path(__file__).resolve().parents[1]
               / "src" / "repro" / "runtime")


# -- payloads ---------------------------------------------------------------

_RAN: list[str] = []


def _noop():
    return None


def _record(label):
    _RAN.append(label)
    return label


# -- one-worker executor per substrate ------------------------------------
#
# Single-worker configs make the dispatch order equal to the engine's
# ready order, so priority handling is observable from the trace.

def _one_core() -> Machine:
    return Machine(n_cores=1, n_sockets=1)


def _run_sequential(graph, injector=None):
    return SequentialScheduler(injector=injector).run(graph)


def _run_threads(graph, injector=None):
    return ThreadScheduler(1, injector=injector).run(graph)


def _run_pool(graph, injector=None):
    pool = WorkerPool(1)
    try:
        run = pool.submit(graph, injector=injector)
        run.wait()
    finally:
        pool.shutdown()
    return run.result()


def _run_simulated(graph, injector=None):
    return SimulatedMachine(_one_core(), injector=injector).run(graph)


EXECUTORS = {
    "sequential": _run_sequential,
    "threads": _run_threads,
    "pool": _run_pool,
    "simulated": _run_simulated,
}

ALL = sorted(EXECUTORS)


# -- crafted DAGs ----------------------------------------------------------

PRIORITIES = [1, 9, 3, 7, 5]


def _fan_graph() -> TaskGraph:
    """One root, five independent leaves with distinct priorities."""
    g = TaskGraph()
    h = DataHandle("h")
    g.insert_task(_noop, [(h, INOUT)], name="root")
    for p in PRIORITIES:
        g.insert_task(_noop, [(h, INPUT)], name=f"leaf{p}", priority=p)
    return g


def _chain_graph(n: int, func=_noop, name="link") -> TaskGraph:
    """A serial chain: link i must run before link i+1 on any backend."""
    g = TaskGraph()
    h = DataHandle("h")
    for i in range(n):
        args = (f"{name}{i}",) if func is _record else ()
        g.insert_task(func, [(h, INOUT)], args=args, name=f"{name}{i}")
    return g


def _execution_order(trace) -> list[str]:
    return [e.name for e in sorted(trace.events,
                                   key=lambda e: (e.t_start, e.t_end))]


# -- priority order --------------------------------------------------------

@pytest.mark.parametrize("name", ALL)
def test_priority_order(name):
    trace = EXECUTORS[name](_fan_graph())
    names = _execution_order(trace)
    assert names[0] == "root"
    if name == "sequential":
        # Documented policy: the sequential substrate runs in submission
        # order (priorities are a concurrency concern).
        expected = [f"leaf{p}" for p in PRIORITIES]
    else:
        expected = [f"leaf{p}" for p in sorted(PRIORITIES, reverse=True)]
    assert names[1:] == expected


# -- first-failure cancellation --------------------------------------------

@pytest.mark.parametrize("name", ALL)
def test_first_failure_cancellation(name):
    _RAN.clear()
    g = _chain_graph(6, func=_record)
    target = g.tasks[3].seq
    inj = FaultInjector(FaultSpec(task_seq=target))
    with pytest.raises(TaskFailure) as ei:
        EXECUTORS[name](g, injector=inj)
    assert ei.value.seq == target
    assert inj.injected == 1
    # Everything before the fault ran, nothing after it did.
    assert _RAN == ["link0", "link1", "link2"]


# -- nth-match fault determinism -------------------------------------------

@pytest.mark.parametrize("name", ALL)
def test_nth_fault_deterministic(name):
    # Five tasks of the same kernel name in a chain: the chain fixes the
    # execution order, so ``nth=2`` is the same task on every backend.
    g = TaskGraph()
    h = DataHandle("h")
    for _ in range(5):
        g.insert_task(_noop, [(h, INOUT)], name="Kernel")
    expected_seq = g.tasks[2].seq
    inj = FaultInjector(FaultSpec(kernel="Kernel", nth=2))
    with pytest.raises(TaskFailure) as ei:
        EXECUTORS[name](g, injector=inj)
    assert ei.value.seq == expected_seq


# -- the run's event log ---------------------------------------------------

@pytest.mark.parametrize("name", ALL)
def test_trace_records_every_task(name):
    g = _fan_graph()
    trace = EXECUTORS[name](g)
    # Exactly one event per executed task, naming the task's seq.
    assert sorted(ev.seq for ev in trace.events) == [t.seq for t in g.tasks]
    assert [ev.name for ev in sorted(trace.events, key=lambda ev: ev.seq)] \
        == [t.name for t in g.tasks]

    # A failed run's partial log reaches the caller on the error: the
    # three links that completed before the fault, and nothing else.
    chain = _chain_graph(6)
    inj = FaultInjector(FaultSpec(task_seq=chain.tasks[3].seq))
    with pytest.raises(TaskFailure) as ei:
        EXECUTORS[name](chain, injector=inj)
    partial = ei.value.trace
    assert partial is not None
    assert sorted(ev.seq for ev in partial.events) \
        == [t.seq for t in chain.tasks[:3]]


# -- run isolation ---------------------------------------------------------

def test_concurrent_runs_isolated():
    """Two fused runs on one pool: a fault in one never leaks into the
    other (per-run countdowns, errors and cancellation state)."""
    good = _chain_graph(8, name="good")
    bad = _chain_graph(8, name="bad")
    inj = FaultInjector(FaultSpec(task_seq=bad.tasks[2].seq))
    pool = WorkerPool(2)
    try:
        r_good = pool.submit(good)
        r_bad = pool.submit(bad, injector=inj)
        assert r_good.wait(timeout=60.0)
        assert r_bad.wait(timeout=60.0)
    finally:
        pool.shutdown()
    assert not r_good.errors
    trace = r_good.result()
    assert sorted(e.name for e in trace.events) \
        == sorted(f"good{i}" for i in range(8))
    assert r_bad.failed
    assert isinstance(r_bad.errors[0], TaskFailure)
    with pytest.raises(TaskFailure):
        r_bad.result()


# -- privacy boundary ------------------------------------------------------

def test_no_private_cross_module_imports():
    """Outside engine.py, no runtime module may import another module's
    underscore-private names (the engine is the one shared-internals
    surface; everything else talks through public APIs)."""
    offenders: list[str] = []
    for path in sorted(RUNTIME_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        offenders.append(
                            f"{path.name}:{node.lineno}: "
                            f"from {'.' * node.level}{node.module or ''} "
                            f"import {alias.name}")
    assert not offenders, (
        "private cross-module imports in runtime/:\n" + "\n".join(offenders))
