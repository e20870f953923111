"""Panel-width policy and the priority-free D&C graph.

Three promises are pinned here:

1. Scheduling is invisible to the numerics — runtime priorities never
   change a single bit, and any fixed panel-width plan gives bitwise
   identical results on every backend (the bitwise-equivalence matrix).
2. The D&C graph carries no priorities: every task is submitted at
   priority 0, so ready tasks run in submission order (QUARK's
   sequential task flow), from a fresh build or from the template cache.
3. On the simulated machine with the runtime's per-task dispatch cost,
   level-adaptive panel widths strictly improve the makespan of a
   low-deflation Fig-6 shape.
"""

import numpy as np
import pytest

from repro import dc_eigh
from repro.core import DCContext, DCOptions, submit_dc
from repro.core.graph_cache import graph_template_cache, template_key
from repro.core.options import _ADAPTIVE_MIN_NB, TASK_OVERHEAD_S
from repro.matrices import test_matrix as table3_matrix
from repro.runtime import (Machine, SequentialScheduler, SimulatedMachine,
                           TaskGraph, ThreadScheduler)


def _graph_for(d, e, opts):
    graph = TaskGraph()
    submit_dc(graph, DCContext(d, e, opts))
    return graph


# ---------------------------------------------------------------------------
# adaptive panel-width policy


def test_node_nb_fixed_when_adaptive_off():
    opts = DCOptions()
    n = 2000
    assert opts.node_nb(125, n) == opts.effective_nb(n)
    assert opts.node_nb(n, n) == opts.effective_nb(n)


def test_node_nb_explicit_nb_wins():
    opts = DCOptions(nb=48, adaptive_nb=True)
    assert opts.node_nb(2000, 2000) == 48
    assert opts.node_nb(100, 2000) == 48


def test_node_nb_deep_levels_get_full_panels():
    opts = DCOptions(adaptive_nb=True, target_parallelism=16)
    n = 4096
    # 32 concurrent merges of 128 saturate 16 workers: one panel each.
    assert opts.node_nb(128, n) == 128


def test_node_nb_spine_splits_into_narrow_panels():
    opts = DCOptions(adaptive_nb=True, target_parallelism=16)
    n = 4096
    root_nb = opts.node_nb(n, n)
    assert root_nb < n
    assert root_nb >= _ADAPTIVE_MIN_NB
    # The root must expose at least one panel per planned worker.
    assert n // root_nb >= 16


def test_node_nb_respects_cost_floor():
    opts = DCOptions(adaptive_nb=True, target_parallelism=16)
    for node_n in (256, 512, 1024, 4096):
        nb = opts.node_nb(node_n, 4096)
        assert nb >= min(node_n, _ADAPTIVE_MIN_NB)


def test_target_parallelism_validation():
    with pytest.raises(ValueError):
        DCOptions(target_parallelism=0)


# ---------------------------------------------------------------------------
# priorities


@pytest.mark.parametrize("adaptive", [False, True])
def test_dc_graph_carries_no_priorities(adaptive):
    d, e = table3_matrix(4, 300, seed=3)
    graph = _graph_for(d, e, DCOptions(adaptive_nb=adaptive))
    assert all(t.priority == 0 for t in graph.tasks)


@pytest.mark.parametrize("mtype", [2, 4])
def test_priorities_never_change_bits(mtype):
    # Task.priority stays the runtime's QUARK API: whatever priorities a
    # caller puts on the D&C graph, they only reorder independent work.
    d, e = table3_matrix(mtype, 150, seed=21)
    opts = DCOptions()
    lam0, V0 = dc_eigh(d, e, options=opts)
    rng = np.random.default_rng(mtype)
    for prio in (lambda t: -t.seq,
                 lambda t: int(rng.integers(0, 1000))):
        ctx = DCContext(d, e, opts)
        graph = TaskGraph()
        submit_dc(graph, ctx)
        for t in graph.tasks:
            t.priority = prio(t)
        ThreadScheduler(n_workers=4).run(graph)
        lam, V = ctx.result()
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


# ---------------------------------------------------------------------------
# bitwise-equivalence matrix


@pytest.mark.parametrize("adaptive", [False, True])
def test_backends_bitwise_identical_per_plan(adaptive):
    # Each nb plan is one fixed DAG shape; within a plan every backend
    # must produce identical bits.  (Different nb plans may differ in
    # the last ulp — panel boundaries change the ReduceW product
    # association — which is why adaptive_nb is opt-in.)
    d, e = table3_matrix(3, 160, seed=22)
    opts = DCOptions(adaptive_nb=adaptive, target_parallelism=8)
    lam0, V0 = dc_eigh(d, e, options=opts)
    for backend, workers in (("threads", 4), ("threads", 8),
                             ("simulated", 4)):
        lam, V = dc_eigh(d, e, options=opts, backend=backend,
                         n_workers=workers)
        np.testing.assert_array_equal(lam0, lam)
        np.testing.assert_array_equal(V0, V)


def test_graph_cache_reuse_preserves_priorities_and_bits():
    d, e = table3_matrix(4, 170, seed=24)
    opts = DCOptions(reuse_graph=True)
    graph_template_cache.clear()
    lam0, V0 = dc_eigh(d, e, options=opts)          # miss: builds template
    lam1, V1 = dc_eigh(d, e, options=opts)          # hit: instantiates
    assert graph_template_cache.hits >= 1
    np.testing.assert_array_equal(lam0, lam1)
    np.testing.assert_array_equal(V0, V1)

    # The instantiated graph has the priorities of a fresh build.
    fresh = _graph_for(d, e, DCOptions())
    ctx = DCContext(d, e, opts)
    cached, _ = graph_template_cache.get_or_build(
        ctx, template_key(ctx.n, ctx.opts))
    assert [t.priority for t in cached.tasks] \
        == [t.priority for t in fresh.tasks]


def test_template_key_separates_scheduling_plans():
    n = 512
    keys = {template_key(n, DCOptions()),
            template_key(n, DCOptions(adaptive_nb=True)),
            template_key(n, DCOptions(adaptive_nb=True,
                                      target_parallelism=4))}
    assert len(keys) == 3
    # target_parallelism only shapes the adaptive plan.
    assert template_key(n, DCOptions(target_parallelism=4)) \
        == template_key(n, DCOptions())


# ---------------------------------------------------------------------------
# observability


def test_schedule_counters_recorded():
    from repro.obs import solve_metrics
    d, e = table3_matrix(4, 500, seed=25)
    opts = DCOptions(adaptive_nb=True)
    res = dc_eigh(d, e, options=opts, full_result=True)
    level_nb = solve_metrics(res).hists["schedule.level_nb"]
    # One width per merge level, bottom-up: the policy's plan.
    levels = res.info.tree.merges_by_level()
    assert level_nb == [opts.node_nb(lv[0].n, 500) for lv in levels]


def test_trace_events_carry_priorities():
    from repro.obs import chrome_trace
    d, e = table3_matrix(4, 500, seed=25)
    res = dc_eigh(d, e, backend="simulated", n_workers=4,
                  full_result=True)
    assert all(ev.priority == 0 for ev in res.trace.events)
    doc = chrome_trace(res.trace, None)
    rows = [ev for ev in doc["traceEvents"]
            if ev.get("ph") == "X" and ev.get("cat") == "task"]
    assert rows and all("priority" in ev["args"] for ev in rows)


# ---------------------------------------------------------------------------
# deterministic makespan improvement (small-scale mirror of the
# BENCH_schedule gate; virtual time, so stable on any host)


def test_scheduling_stack_improves_simulated_makespan():
    d, e = table3_matrix(4, 1200, seed=0)
    machine = Machine(task_overhead=TASK_OVERHEAD_S)

    def makespan(opts):
        graph = _graph_for(d, e, opts)
        SequentialScheduler().run(graph)
        sim = SimulatedMachine(machine, n_workers=16, execute=False)
        return sim.run(graph).makespan

    base = makespan(DCOptions())
    adaptive = makespan(DCOptions(adaptive_nb=True, target_parallelism=16))
    assert adaptive < base * 0.95, (
        f"expected >= 5% improvement, "
        f"got {100 * (1 - adaptive / base):.2f}%")
