"""Kernel attribution from the run's trace: collapsed stacks
(repro.obs.export.collapsed_stacks) and the exact per-kernel session
totals folded from every solve's trace."""

import re

from repro.core import DCOptions
from repro.core.session import SolverSession
from repro.matrices import test_matrix as table3_matrix
from repro.obs import SessionMetrics, collapsed_stacks, telemetry_summary
from repro.runtime.trace import Trace, TraceEvent


def _trace(*tasks):
    """A one-worker trace of back-to-back ``(name, tag, seconds)`` tasks."""
    trace = Trace(n_workers=1)
    t = 0.0
    for seq, (name, tag, dur) in enumerate(tasks):
        trace.record(TraceEvent(seq, name, 0, t, t + dur, tag, seq=seq))
        t += dur
    return trace


def test_collapsed_stack_levels():
    # Root merge (0, 8) contains (0, 4) contains (0, 2): levels 0/1/2.
    trace = _trace(("UpdateVect", (0, 8), 2e-6),
                   ("UpdateVect", (0, 8), 3e-6),
                   ("LAED4", (0, 4), 1e-6),
                   ("PermuteV", (0, 2), 4e-6),
                   ("STEDC", (0, 2), 5e-6))
    text = collapsed_stacks(trace)
    assert text.endswith("\n")
    lines = text.splitlines()
    # Weights are microseconds of exact task time.
    assert "solve;level0;merge[0:8];UpdateVect 5" in lines
    assert "solve;level1;merge[0:4];LAED4 1" in lines
    assert "solve;level2;merge[0:2];PermuteV 4" in lines
    # Leaf tasks carry a (lo, hi) tag too, but only merge kernels get
    # merge frames (the same rule as the Chrome-trace merge hierarchy).
    assert "solve;STEDC 5" in lines
    assert lines == sorted(lines)
    # Every line is flamegraph-collapsible: "frame;frame;... weight".
    for line in lines:
        assert re.match(r"^solve(;[^; ]+)* \d+$", line)


def test_summary_outputs():
    # The per-kernel views of one trace: the human table of
    # Trace.summary (which telemetry_summary prints) and the session's
    # kernel_stats dict (the /debug/state "kernels" block).
    trace = _trace(("LAED4", (0, 10), 3e-3), ("LAED4", (0, 10), 1e-3),
                   ("STEDC", (0, 5), 2e-3))
    text = telemetry_summary(None, trace)
    assert "per-kernel time:" in text
    assert re.search(r"^  LAED4 .* x2$", text, re.M)
    assert re.search(r"^  STEDC .* x1$", text, re.M)
    m = SessionMetrics()
    m.note_solve(0.01, n_tasks=len(trace.events), trace=trace)
    stats = m.kernel_stats()
    assert list(stats) == ["LAED4", "STEDC"]
    assert stats["LAED4"]["tasks"] == 2 and stats["STEDC"]["tasks"] == 1
    assert stats["LAED4"]["seconds"] == trace.kernel_times()["LAED4"]
    assert m.tasks == sum(v["tasks"] for v in stats.values())


def test_trace_attributes_kernels_on_real_solve():
    n = 1200
    d, e = table3_matrix(4, n, seed=0)
    with SolverSession(backend="threads", n_workers=4,
                       options=DCOptions(minpart=64)) as s:
        res = s.solve(d, e, full_result=True)
        kernels = s.metrics.kernel_stats()
    trace = res.trace
    # Exact attribution: every task of the solve lands in its kernel's
    # totals, with its measured duration — no sampling.
    assert sum(v["tasks"] for v in kernels.values()) \
        == len(trace.events) == len(res.graph.tasks)
    assert {name: v["seconds"] for name, v in kernels.items()} \
        == trace.kernel_times()
    assert {"LAED4", "UpdateVect", "ComputeVect", "STEDC"} <= set(kernels)
    text = collapsed_stacks(trace)
    assert re.search(rf"^solve;level0;merge\[0:{n}\];\w+ \d+$", text, re.M)
    # The stacks' weights add up to the trace's busy time (each line is
    # rounded to a whole microsecond).
    weights = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()]
    assert abs(sum(weights) - trace.busy_time * 1e6) <= len(weights)
