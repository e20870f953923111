"""One solve's telemetry, derived from the solve's own record.

Nothing is recorded while a solve runs.  :func:`solve_metrics` reads a
finished solve — a :class:`~repro.core.solver.DCResult` — and derives
the counter schema of ``docs/OBSERVABILITY.md`` from what the solve
already keeps:

* the run's :class:`~repro.runtime.trace.Trace`: task counts, park
  count and time (from ``idle_intervals``, where the thread pool
  recorded them) and, with the task graph, the ready-set depth;
* the per-merge :class:`~repro.core.merge.MergeStats`, merge states and
  partition tree: deflation, rotations, Givens chains, fallbacks, panel
  widths and per-root LAED4 iterations;
* the memory model of :mod:`repro.analysis.memory`: the workspace
  gauges;
* optionally a session's ``stats()``: template-cache and workspace-arena
  counters (lifetime totals of the session).

The exporters in :mod:`repro.obs.export` render the returned
:class:`SolveMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["SolveMetrics", "solve_metrics", "ready_depth"]


@dataclass
class SolveMetrics:
    """Counters, gauges, histograms (raw values) and counter tracks."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    hists: dict[str, list[float]] = field(default_factory=dict)
    #: ``(name, track) -> [(t, value), ...]``: Perfetto counter tracks.
    series: dict[tuple[str, int], list[tuple[float, float]]] = \
        field(default_factory=dict)

    def hist_stats(self, name: str) -> Optional[dict]:
        """count/min/max/mean/p50/p90/p99/sum of one histogram (None if
        absent)."""
        vals = self.hists.get(name)
        if not vals:
            return None
        s = sorted(vals)
        n = len(s)
        total = sum(s)
        return {"count": n, "min": s[0], "max": s[-1], "mean": total / n,
                "p50": s[(n - 1) // 2], "p90": s[min(n - 1, (9 * n) // 10)],
                "p99": s[min(n - 1, (99 * n) // 100)], "sum": total}


def ready_depth(trace, graph) -> list[tuple[float, float]]:
    """``(t_start, depth)`` at each traced task's start, in start order.

    A task is ready once its last predecessor has ended (a source task
    at time 0, the run's origin); ``depth`` counts the tasks that are
    ready at that instant but start later.  Rebuilt from the trace and
    the graph's edges, so it is the same quantity on every backend.
    """
    events = sorted(trace.events, key=lambda e: e.t_start)
    if not events:
        return []
    start = {e.task_uid: e.t_start for e in events}
    end = {e.task_uid: e.t_end for e in events}
    ready = dict.fromkeys(start, 0.0)
    for t in graph.tasks:
        t_end = end.get(t.uid)
        if t_end is None:
            continue
        for s in t.successors:
            if ready.get(s.uid, t_end) < t_end:
                ready[s.uid] = t_end
    starts = np.array([e.t_start for e in events])
    readies = np.sort(list(ready.values()))
    depth = (np.searchsorted(readies, starts, side="right")
             - np.searchsorted(starts, starts, side="right"))
    return list(zip(starts.tolist(), depth.astype(float).tolist()))


def solve_metrics(result, stats: Optional[dict] = None) -> SolveMetrics:
    """The telemetry of one finished solve.

    ``result`` is the :class:`~repro.core.solver.DCResult` of a solve
    (``full_result=True``); ``stats`` an optional ``session.stats()``
    snapshot for the cache and arena counters.  A name with nothing
    behind it (no merge, no parking, no secular root) is absent rather
    than zero.
    """
    # Imported here: repro.analysis imports the core, which imports obs.
    from ..analysis.memory import solve_high_water_bytes

    trace, graph, info = result.trace, result.graph, result.info
    ctx = info.ctx
    opts = ctx.opts
    m = SolveMetrics()
    c, g, h = m.counters, m.gauges, m.hists
    c["solve.count"] = 1.0
    c[f"solve.jobz.{opts.jobz}"] = 1.0
    c["solve.tasks_submitted"] = float(len(graph.tasks))
    c["scheduler.tasks"] = float(len(trace.events))
    if trace.idle_intervals:
        c["scheduler.park.count"] = float(len(trace.idle_intervals))
        c["scheduler.park.time_s"] = sum(b - a for _, a, b
                                         in trace.idle_intervals)
    depth = ready_depth(trace, graph)
    if depth:
        h["scheduler.ready_depth"] = [d for _, d in depth]
        m.series[("scheduler.ready_depth", 0)] = depth

    merges = ctx.merge_stats
    levels = info.tree.merges_by_level()
    if levels:
        h["schedule.level_nb"] = [float(opts.node_nb(lv[0].n, ctx.n))
                                  for lv in levels]
    if merges:
        c["merge.count"] = float(len(merges))
        c["merge.rotations"] = float(sum(s.n_rotations for s in merges))
        h["merge.deflation_ratio"] = [s.deflation_ratio for s in merges]
        h["merge.deflation_ratio.givens"] = [s.n_rotations / s.n
                                             for s in merges]
        h["merge.deflation_ratio.smallz"] = [
            (s.n - s.k - s.n_rotations) / s.n for s in merges]
        chains = [float(len(ch)) for s in merges
                  for ch in info.states[(s.lo, s.hi)].chains]
        if chains:
            h["merge.givens_chain_len"] = chains
        g["workspace.x_block_bytes"] = float(max(
            8 * s.k * s.k if opts.jobz == "V" else 0 for s in merges))
        root = merges[-1]
        if root.n == ctx.n:
            g["workspace.high_water_bytes"] = float(solve_high_water_bytes(
                ctx.n, root.k, opts.extra_workspace, jobz=opts.jobz))
    fallbacks = sum(1 for s in merges if s.fallback)
    if fallbacks:
        c["solve.fallbacks"] = float(fallbacks)
    sweeps = sum(s.secular_sweeps for s in merges)
    if sweeps:
        c["secular.sweeps"] = float(sweeps)
    iters = [float(x) for s in merges for x in s.secular_iterations]
    if iters:
        c["secular.roots"] = float(len(iters))
        h["secular.iterations"] = iters

    if stats is not None:
        for group, prefix, keys in (
                ("graph_cache", "graph_cache", ("hits", "misses",
                                                "evictions")),
                ("workspace", "workspace_pool", ("hits", "misses"))):
            block = stats.get(group) or {}
            for key in keys:
                if key in block:
                    c[f"{prefix}.{key}"] = float(block[key])
    return m
