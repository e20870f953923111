"""Fault injection, first-failure cancellation, batch error isolation."""

import threading
import time

import numpy as np
import pytest

from repro import dc_eigh, dc_eigh_many
from repro.core.options import DCOptions
from repro.core.solver import SolveFailure
from repro.errors import InjectedFault, InputError, TaskFailure
from repro.runtime import (TaskGraph, SequentialScheduler, ThreadScheduler,
                           SimulatedMachine, FaultInjector, FaultSpec)
from repro.runtime.task import DataHandle, OUTPUT

BACKENDS = ["sequential", "threads", "simulated"]


def _problem(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(n - 1)


# ---------------------------------------------------------------------------
# FaultSpec / FaultInjector
# ---------------------------------------------------------------------------

def test_fault_spec_parse():
    assert FaultSpec.parse("task:17") == FaultSpec(task_seq=17)
    assert FaultSpec.parse("kernel:LAED4") == FaultSpec(kernel="LAED4")
    assert FaultSpec.parse("kernel:LAED4:2") == FaultSpec(kernel="LAED4",
                                                          nth=2)
    assert FaultSpec.parse("p:0.5:9") == FaultSpec(probability=0.5, seed=9)
    with pytest.raises(InputError):
        FaultSpec.parse("nope:1")
    with pytest.raises(InputError):
        FaultSpec.parse("task:xyz")


def test_fault_spec_validation():
    with pytest.raises(InputError):
        FaultSpec(probability=1.5)
    with pytest.raises(InputError):
        FaultSpec()        # empty spec selects nothing


def test_probability_roll_is_deterministic():
    class T:
        def __init__(self, seq):
            self.name, self.seq = "K", seq

    def fired(seed):
        inj = FaultInjector(FaultSpec(probability=0.3, seed=seed))
        out = []
        for s in range(200):
            try:
                inj.maybe_fail(T(s))
            except InjectedFault:
                out.append(s)
        return out

    a, b = fired(7), fired(7)
    assert a == b and 20 < len(a) < 100   # ~60 expected
    assert fired(8) != a                  # seed changes the draw


# ---------------------------------------------------------------------------
# Combined selectors are ANDed (regression: kernel/task_seq used to
# bypass the probability roll entirely, and roll-vetoed tasks consumed
# the nth counter)
# ---------------------------------------------------------------------------

class _T:
    def __init__(self, name, seq):
        self.name, self.seq = name, seq


def _fired(inj, tasks):
    out = []
    for t in tasks:
        try:
            inj.maybe_fail(t)
        except InjectedFault:
            out.append(t.seq)
    return out


def test_and_semantics_kernel_plus_probability():
    # kernel AND probability: only tasks of the kernel whose roll fires
    # fail — the kernel match must not short-circuit past the roll.
    spec = FaultSpec(kernel="K", probability=0.5, seed=11)
    ref = FaultInjector(spec)
    rolls = {s for s in range(100) if ref._roll(s)}
    assert rolls and len(rolls) < 100   # both outcomes present

    inj = FaultInjector(spec)
    tasks = [_T("K" if s % 2 else "J", s) for s in range(100)]
    fired = _fired(inj, tasks)
    assert fired == [s for s in range(100) if s % 2 and s in rolls]


def test_and_semantics_task_seq_plus_probability():
    ref = FaultInjector(FaultSpec(probability=0.5, seed=11))
    hit = next(s for s in range(100) if ref._roll(s))
    miss = next(s for s in range(100) if not ref._roll(s))

    # Roll fires at the selected seq -> fault.
    inj = FaultInjector(FaultSpec(task_seq=hit, probability=0.5, seed=11))
    with pytest.raises(InjectedFault):
        inj.maybe_fail(_T("K", hit))
    # Roll misses at the selected seq -> no fault, ever.
    inj = FaultInjector(FaultSpec(task_seq=miss, probability=0.5, seed=11))
    inj.maybe_fail(_T("K", miss))
    assert inj.injected == 0


def test_nth_counter_ignores_roll_vetoed_tasks():
    # nth counts *eligible* matches: a task vetoed by the probability
    # roll must not advance the counter.
    spec = FaultSpec(kernel="K", nth=1, probability=0.5, seed=11)
    ref = FaultInjector(spec)
    rolls = [s for s in range(100) if ref._roll(s)]
    assert len(rolls) >= 2

    inj = FaultInjector(spec)
    fired = _fired(inj, [_T("K", s) for s in range(100)])
    # The second roll-surviving seq fails — not plain seq 1.
    assert fired == [rolls[1]]


def test_nth_counter_ignores_other_kernels():
    inj = FaultInjector(FaultSpec(kernel="K", nth=2))
    tasks = [_T("J", 0), _T("K", 1), _T("J", 2), _T("K", 3), _T("J", 4),
             _T("K", 5)]
    assert _fired(inj, tasks) == [5]   # third "K", not seq 2


# ---------------------------------------------------------------------------
# Scheduler-level injection: same typed failure on every backend
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_injected_failure_is_typed_and_named(backend):
    d, e = _problem()
    opts = DCOptions(fault_injection=FaultSpec(kernel="LAED4", nth=0))
    with pytest.raises(TaskFailure) as ei:
        dc_eigh(d, e, options=opts, backend=backend)
    exc = ei.value
    assert exc.task_name == "LAED4"
    assert exc.seq >= 0
    assert "LAED4" in str(exc)
    assert isinstance(exc.__cause__, InjectedFault)


@pytest.mark.parametrize("backend", BACKENDS)
def test_same_task_fails_on_every_backend(backend):
    # The probability roll hashes (seed, task.seq): a pure function of
    # the spec and the DAG, independent of backend and schedule.
    d, e = _problem()
    opts = DCOptions(fault_injection=FaultSpec(probability=0.02, seed=3))
    with pytest.raises(TaskFailure) as ei:
        dc_eigh(d, e, options=opts, backend=backend)
    # Sequential order makes the *first* matching seq fail; out-of-order
    # backends may hit another match first, but it must be a match of
    # the same deterministic draw.
    inj = FaultInjector(FaultSpec(probability=0.02, seed=3))
    assert inj._roll(ei.value.seq)


def test_thread_cancellation_drains_and_joins_quickly():
    """First failure cancels the run: pending tasks drain as no-ops and
    the workers join within bounded time."""
    g = TaskGraph()
    ran = []

    def work(i):
        time.sleep(0.001)
        ran.append(i)

    for i in range(300):
        g.insert_task(work, [(DataHandle(), OUTPUT)], args=(i,),
                      name=f"w{i}")
    inj = FaultInjector(FaultSpec(task_seq=5))
    n_before = threading.active_count()
    t0 = time.perf_counter()
    with pytest.raises(TaskFailure, match="'w5'"):
        ThreadScheduler(4, injector=inj).run(g)
    dt = time.perf_counter() - t0
    # 300 × 1 ms of work exists; cancellation must cut it short.
    assert dt < 2.0
    assert len(ran) < 300
    # All workers joined: no thread leak.
    deadline = time.time() + 5.0
    while threading.active_count() > n_before and time.time() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= n_before


def test_cancellation_counters():
    # The failed run's trace counts what completed before the first
    # failure; the failed task is not among it.
    d, e = _problem()
    opts = DCOptions(fault_injection=FaultSpec(kernel="LAED4", nth=0))
    with pytest.raises(TaskFailure) as info:
        dc_eigh(d, e, options=opts, backend="threads")
    failure = info.value
    names = [ev.name for ev in failure.trace.events]
    # The failing LAED4's merge waited for its two leaves.
    assert names.count("STEDC") >= 2
    assert failure.seq not in {ev.seq for ev in failure.trace.events}


def test_sequential_cancellation_counters():
    # A fault on t4 of 10: the partial trace holds exactly t0-t3, so the
    # other 6 (the failed task and 5 cancelled) never ran.
    g = TaskGraph()
    for i in range(10):
        g.insert_task(lambda: None, [(DataHandle(), OUTPUT)], name=f"t{i}")
    inj = FaultInjector(FaultSpec(task_seq=4))
    with pytest.raises(TaskFailure, match="'t4'") as info:
        SequentialScheduler(injector=inj).run(g)
    events = info.value.trace.events
    assert [ev.name for ev in events] == ["t0", "t1", "t2", "t3"]


def test_simulated_injection():
    g = TaskGraph()
    g.insert_task(lambda: None, [(DataHandle(), OUTPUT)], name="only")
    inj = FaultInjector(FaultSpec(task_seq=0))
    from repro.runtime import Machine
    with pytest.raises(TaskFailure, match="'only'"):
        SimulatedMachine(Machine(), injector=inj).run(g)


# ---------------------------------------------------------------------------
# AND-selectors behave identically on every backend
# ---------------------------------------------------------------------------

def _laed4_seqs(d, e):
    res = dc_eigh(d, e, full_result=True)
    return [t.seq for t in res.graph.tasks if t.name == "LAED4"]


def _find_seeds(seqs, p=0.2):
    """A seed where no LAED4 task rolls, and one where some do."""
    quiet = noisy = None
    for seed in range(200):
        inj = FaultInjector(FaultSpec(probability=p, seed=seed))
        n = sum(inj._roll(s) for s in seqs)
        if n == 0 and quiet is None:
            quiet = seed
        if n > 0 and noisy is None:
            noisy = seed
        if quiet is not None and noisy is not None:
            return quiet, noisy
    raise AssertionError("no suitable seeds in range")


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_and_probability_identical_on_every_backend(backend):
    # Regression: kernel= used to make the spec fire unconditionally,
    # ignoring the probability roll.  With a seed whose roll misses all
    # LAED4 tasks the solve must SUCCEED; with a seed that hits, it must
    # fail in a roll-matching LAED4 task — on every backend.
    d, e = _problem(120, seed=6)
    seqs = _laed4_seqs(d, e)
    quiet, noisy = _find_seeds(seqs)
    lam0, V0 = dc_eigh(d, e)

    lam, V = dc_eigh(d, e, options=DCOptions(fault_injection=FaultSpec(
        kernel="LAED4", probability=0.2, seed=quiet)), backend=backend)
    np.testing.assert_array_equal(lam0, lam)
    np.testing.assert_array_equal(V0, V)

    spec = FaultSpec(kernel="LAED4", probability=0.2, seed=noisy)
    with pytest.raises(TaskFailure) as ei:
        dc_eigh(d, e, options=DCOptions(fault_injection=spec),
                backend=backend)
    assert ei.value.task_name == "LAED4"
    assert FaultInjector(spec)._roll(ei.value.seq)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_and_nth_identical_on_every_backend(backend):
    # nth with kernel selects one deterministic match; with an
    # out-of-order schedule the *set* of eligible tasks is fixed even if
    # which one hits the counter first is not.
    d, e = _problem(120, seed=6)
    spec = FaultSpec(kernel="PermuteV", nth=1)
    with pytest.raises(TaskFailure) as ei:
        dc_eigh(d, e, options=DCOptions(fault_injection=spec),
                backend=backend)
    assert ei.value.task_name == "PermuteV"
    assert isinstance(ei.value.__cause__, InjectedFault)


# ---------------------------------------------------------------------------
# Batch isolation: dc_eigh_many keeps going around failed problems
# ---------------------------------------------------------------------------

def test_batch_isolates_failures_good_bad_good():
    d, e = _problem(120, seed=1)
    dbad = d.copy()
    dbad[7] = np.nan
    out = dc_eigh_many([(d, e), (dbad, e), (d, e)])
    assert len(out) == 3
    lam0, V0 = out[0]
    lam2, V2 = out[2]
    np.testing.assert_array_equal(lam0, lam2)
    assert isinstance(out[1], SolveFailure)
    assert out[1].index == 1
    assert isinstance(out[1].error, InputError)
    assert "d[7]" in str(out[1].error)


def test_batch_raise_on_error_restores_old_behavior():
    d, e = _problem(120, seed=1)
    dbad = d.copy()
    dbad[7] = np.inf
    with pytest.raises(InputError):
        dc_eigh_many([(d, e), (dbad, e)], raise_on_error=True)


def test_batch_isolates_task_failures():
    # A mid-solve TaskFailure (not just boundary rejection) is isolated
    # too: injection fails every solve, results are all records.
    d, e = _problem(120, seed=2)
    opts = DCOptions(fault_injection=FaultSpec(kernel="ReduceW", nth=0))
    out = dc_eigh_many([(d, e), (d, e)], options=opts, backend="threads")
    assert all(isinstance(r, SolveFailure) for r in out)
    assert [r.index for r in out] == [0, 1]
    assert all(isinstance(r.error, TaskFailure) for r in out)


# ---------------------------------------------------------------------------
# Stress: many random single-task faults, all backends, clean every time
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_injection_stress(backend):
    """50 random tasks across the DAG each made to fail once: every run
    raises a typed TaskFailure naming the task, workers always join."""
    d, e = _problem(150, seed=4)
    n_tasks = len(dc_eigh(d, e, full_result=True).graph.tasks)
    rng = np.random.default_rng(11)
    seqs = rng.choice(n_tasks, size=50, replace=False)
    n_before = threading.active_count()
    for seq in seqs:
        opts = DCOptions(fault_injection=FaultSpec(task_seq=int(seq)))
        with pytest.raises(TaskFailure) as ei:
            dc_eigh(d, e, options=opts, backend=backend)
        assert ei.value.seq == int(seq)
        assert ei.value.task_name
    deadline = time.time() + 5.0
    while threading.active_count() > n_before and time.time() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= n_before
