"""Telemetry exporters: JSON-lines, Perfetto/Chrome trace, Prometheus,
collapsed stacks.

Machine-readable views plus a human summary over one solve's telemetry
(the :class:`~repro.obs.metrics.SolveMetrics` that
:func:`~repro.obs.metrics.solve_metrics` derives, and the run's
:class:`~repro.runtime.trace.Trace`):

``write_jsonl``
    One JSON object per line — tasks, idle intervals, counters,
    histograms, gauges and timeseries samples — the archival event log.
``chrome_trace``
    The enriched ``chrome://tracing``/Perfetto document: worker rows
    from :meth:`Trace.to_chrome_trace` (with process/thread metadata),
    the ready-depth **counter track** as ``C`` events, and merge/level
    spans synthesized from the task tags — a zoomable version of the
    paper's Figs. 3–4 with the scheduler's internals on top.
``prometheus_text``
    A Prometheus text-format snapshot of counters/gauges/histograms.
``collapsed_stacks``
    Collapsed-stack flamegraph input weighted by exact task time.
``telemetry_summary`` / ``telemetry_block``
    Human-readable report and the compact dict embedded in BENCH JSON
    (park time, idle fraction, cache hit rate, ...).
"""

from __future__ import annotations

import json
import re
from typing import IO, Optional

from ..runtime.trace import Trace
from .metrics import SolveMetrics

__all__ = ["write_jsonl", "chrome_trace", "prometheus_text",
           "telemetry_summary", "telemetry_block", "merge_spans_from_trace",
           "collapsed_stacks", "prom_name", "prom_label_value"]

#: Merge-kernel names whose events carry a ``(lo, hi)`` merge tag: the
#: shared spine, the eigenvector kernels (``jobz='V'``) and the
#: boundary-row strip kernels (both modes; ``UpdateEig`` at an N root).
_MERGE_KERNELS = frozenset({
    "Compute_deflation", "ApplyGivens", "PermuteV", "LAED4",
    "ComputeLocalW", "ReduceW", "CopyBackDeflated", "ComputeVect",
    "UpdateVect", "GivensStrip", "PermuteStrip", "UpdateStrip",
    "UpdateEig",
})


def merge_spans_from_trace(trace: Trace) -> list[dict]:
    """Synthesize merge and tree-level spans from the flat task events.

    Every merge task is tagged with its node's ``(lo, hi)`` span, so the
    hierarchy solve → level → merge → task can be rebuilt post hoc with
    zero runtime cost: a merge span covers [first task start, last task
    end]; its *level* is the nesting depth of ``(lo, hi)`` containment
    (the root merge is level 0, leaf-pair merges are the deepest).
    """
    merges: dict[tuple[int, int], list[float]] = {}
    for e in trace.events:
        tag = _merge_tag(e)
        if tag is not None:
            box = merges.get(tag)
            if box is None:
                merges[tag] = [e.t_start, e.t_end]
            else:
                box[0] = min(box[0], e.t_start)
                box[1] = max(box[1], e.t_end)
    spans = []
    keys = sorted(merges, key=lambda s: (s[1] - s[0], s[0]))
    for lo, hi in keys:
        level = sum(1 for lo2, hi2 in keys
                    if lo2 <= lo and hi <= hi2 and (lo2, hi2) != (lo, hi))
        t0, t1 = merges[(lo, hi)]
        spans.append({"name": f"merge[{lo}:{hi}]", "lo": lo, "hi": hi,
                      "level": level, "t0": t0, "t1": t1})
    return spans


def _merge_tag(e) -> Optional[tuple[int, int]]:
    """The ``(lo, hi)`` merge span of a merge-kernel event, else None."""
    tag = e.tag
    if e.name in _MERGE_KERNELS and isinstance(tag, tuple) and len(tag) == 2:
        return tag
    return None


def collapsed_stacks(trace: Trace) -> str:
    """Collapsed-stack export of a trace (``frame;frame;frame weight``).

    Each task contributes its exact duration in microseconds.  Merge
    tasks get the stack ``solve;level{L};merge[lo:hi];kernel``, with
    ``L`` the merge's containment level from
    :func:`merge_spans_from_trace` (root merge = level 0); every other
    task collapses to ``solve;kernel``.  Lines are sorted; the text is
    input for ``flamegraph.pl``, speedscope or inferno.
    """
    level = {(s["lo"], s["hi"]): s["level"]
             for s in merge_spans_from_trace(trace)}
    weights: dict[str, float] = {}
    for e in trace.events:
        tag = _merge_tag(e)
        if tag is None:
            stack = f"solve;{e.name}"
        else:
            stack = (f"solve;level{level[tag]};merge[{tag[0]}:{tag[1]}];"
                     f"{e.name}")
        weights[stack] = weights.get(stack, 0.0) + e.duration * 1e6
    return "".join(f"{stack} {round(us)}\n"
                   for stack, us in sorted(weights.items()))


def chrome_trace(trace: Trace,
                 metrics: Optional[SolveMetrics] = None) -> dict:
    """Full Chrome/Perfetto trace document (``{"traceEvents": [...]}``).

    pid 0 carries the worker rows and, with ``metrics``, its counter
    tracks; pid 2 the synthesized merge spans (one thread row per tree
    level).  Every timestamp is on the trace's own clock.
    """
    events = trace.to_chrome_trace()
    events.append({"ph": "M", "pid": 2, "tid": 0, "name": "process_name",
                   "args": {"name": "merge hierarchy"}})
    for s in merge_spans_from_trace(trace):
        events.append({
            "name": s["name"], "cat": "merge", "ph": "X",
            "ts": s["t0"] * 1e6,
            "dur": max((s["t1"] - s["t0"]) * 1e6, 0.01),
            "pid": 2, "tid": s["level"],
            "args": {"lo": s["lo"], "hi": s["hi"]},
        })
        events.append({"ph": "M", "pid": 2, "tid": s["level"],
                       "name": "thread_name",
                       "args": {"name": f"level {s['level']}"}})
    if metrics is not None:
        for (name, track), pairs in sorted(metrics.series.items()):
            for t, v in pairs:
                events.append({
                    "name": name, "cat": "counter", "ph": "C",
                    "ts": t * 1e6, "pid": 0,
                    "args": {f"track{track}": v},
                })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_jsonl(fh: IO[str], metrics: Optional[SolveMetrics],
                trace: Optional[Trace] = None) -> int:
    """Write the JSON-lines event log; returns the number of lines.

    Line types (field ``type``): ``meta``, ``task``, ``idle``,
    ``counter``, ``gauge``, ``hist``, ``sample``.  Version 2 of the
    format; version 1 also carried ``span`` and ``event`` lines.
    """
    n = 0

    def emit(obj: dict) -> None:
        nonlocal n
        fh.write(json.dumps(obj, sort_keys=True) + "\n")
        n += 1

    meta: dict = {"type": "meta", "version": 2}
    if trace is not None:
        meta["n_workers"] = trace.n_workers
        meta["makespan_s"] = trace.makespan
        meta["idle_fraction"] = trace.idle_fraction
    emit(meta)
    if trace is not None:
        for e in trace.events:
            emit({"type": "task", "name": e.name, "worker": e.worker,
                  "t0": e.t_start, "t1": e.t_end, "uid": e.task_uid,
                  "tag": repr(e.tag)})
        for w, a, b in trace.idle_intervals:
            emit({"type": "idle", "worker": w, "t0": a, "t1": b})
    if metrics is not None:
        for name, value in sorted(metrics.counters.items()):
            emit({"type": "counter", "name": name, "value": value})
        for name, value in sorted(metrics.gauges.items()):
            emit({"type": "gauge", "name": name, "value": value})
        for name in sorted(metrics.hists):
            emit({"type": "hist", "name": name,
                  **(metrics.hist_stats(name) or {})})
        for (name, track), pairs in sorted(metrics.series.items()):
            for t, v in pairs:
                emit({"type": "sample", "name": name, "track": track,
                      "t": t, "value": v})
    return n


_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def prom_name(name: str) -> str:
    """Sanitize a metric name per the Prometheus exposition format:
    ``[a-zA-Z_:][a-zA-Z0-9_:]*``.  Every illegal character (``.``, ``-``,
    spaces, quotes, ...) maps to ``_``; a leading digit gets the same
    treatment via the ``repro_`` prefix."""
    return "repro_" + _PROM_BAD_CHARS.sub("_", name)


def prom_label_value(value: str) -> str:
    r"""Escape a label value: ``\`` → ``\\``, ``"`` → ``\"``, newline →
    ``\n`` (the three escapes the exposition format defines)."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def prometheus_text(metrics: SolveMetrics,
                    trace: Optional[Trace] = None) -> str:
    """Prometheus text-format snapshot of one solve's metrics."""
    lines: list[str] = []
    for name, value in sorted(metrics.counters.items()):
        pn = prom_name(name) + "_total"
        lines += [f"# TYPE {pn} counter", f"{pn} {value:.17g}"]
    for name, value in sorted(metrics.gauges.items()):
        pn = prom_name(name)
        lines += [f"# TYPE {pn} gauge", f"{pn} {value:.17g}"]
    for name in sorted(metrics.hists):
        st = metrics.hist_stats(name)
        if st is None:
            continue
        pn = prom_name(name)
        lines += [f"# TYPE {pn} summary",
                  f"{pn}_count {st['count']}",
                  f"{pn}_sum {st['sum']:.17g}",
                  f'{pn}{{quantile="0.5"}} {st["p50"]:.17g}',
                  f'{pn}{{quantile="0.9"}} {st["p90"]:.17g}',
                  f'{pn}{{quantile="0.99"}} {st["p99"]:.17g}']
    if trace is not None:
        lines += ["# TYPE repro_trace_makespan_seconds gauge",
                  f"repro_trace_makespan_seconds {trace.makespan:.17g}",
                  "# TYPE repro_trace_idle_fraction gauge",
                  f"repro_trace_idle_fraction {trace.idle_fraction:.17g}"]
    return "\n".join(lines) + "\n"


def _rate(hits: float, total: float) -> Optional[float]:
    return hits / total if total else None


def telemetry_block(metrics: Optional[SolveMetrics],
                    trace: Optional[Trace] = None) -> dict:
    """Compact telemetry dict for BENCH JSON / regression gating."""
    block: dict = {}
    if trace is not None:
        block["makespan_s"] = trace.makespan
        block["idle_fraction"] = trace.idle_fraction
        block["n_tasks"] = len(trace.events)
    if metrics is None:
        return block
    c = metrics.counters
    block["parks"] = c.get("scheduler.park.count", 0.0)
    block["park_time_s"] = c.get("scheduler.park.time_s", 0.0)
    lookups = (c.get("graph_cache.hits", 0.0)
               + c.get("graph_cache.misses", 0.0))
    block["cache_hits"] = c.get("graph_cache.hits", 0.0)
    block["cache_misses"] = c.get("graph_cache.misses", 0.0)
    block["cache_hit_rate"] = _rate(block["cache_hits"], lookups)
    block["cache_evictions"] = c.get("graph_cache.evictions", 0.0)
    ws_lookups = (c.get("workspace_pool.hits", 0.0)
                  + c.get("workspace_pool.misses", 0.0))
    if ws_lookups:
        block["workspace_pool_hits"] = c.get("workspace_pool.hits", 0.0)
        block["workspace_pool_misses"] = c.get("workspace_pool.misses", 0.0)
        block["workspace_pool_hit_rate"] = _rate(
            block["workspace_pool_hits"], ws_lookups)
    for hist in ("merge.deflation_ratio", "secular.iterations"):
        st = metrics.hist_stats(hist)
        if st is not None:
            block[hist.replace(".", "_")] = {
                k: st[k] for k in ("count", "mean", "max")}
    hw = metrics.gauges.get("workspace.high_water_bytes")
    if hw is not None:
        block["workspace_high_water_bytes"] = hw
    return block


def _fmt_stats(st: Optional[dict]) -> str:
    if not st:
        return "(none)"
    return (f"n={st['count']}  mean={st['mean']:.3g}  "
            f"p50={st['p50']:.3g}  p90={st['p90']:.3g}  max={st['max']:.3g}")


def telemetry_summary(metrics: Optional[SolveMetrics],
                      trace: Optional[Trace] = None) -> str:
    """Human-readable report: scheduler, cache and numeric health."""
    rows: list[str] = []
    if trace is not None:
        rows.append(trace.summary())
    if metrics is None:
        return "\n".join(rows)
    c = metrics.counters
    rows.append("scheduler:")
    rows.append(f"  park cycles      : {c.get('scheduler.park.count', 0):.0f}"
                f"  ({c.get('scheduler.park.time_s', 0):.4g} s parked)")
    rd = metrics.hist_stats("scheduler.ready_depth")
    if rd:
        rows.append(f"  ready depth      : {_fmt_stats(rd)}")
    lookups = c.get("graph_cache.hits", 0.0) + c.get("graph_cache.misses", 0.0)
    if lookups:
        rows.append("graph cache:")
        rows.append(f"  hits/misses      : {c.get('graph_cache.hits', 0):.0f}"
                    f"/{c.get('graph_cache.misses', 0):.0f}")
        ev = c.get("graph_cache.evictions", 0.0)
        if ev:
            rows.append(f"  evictions        : {ev:.0f}")
    ws_lookups = (c.get("workspace_pool.hits", 0.0)
                  + c.get("workspace_pool.misses", 0.0))
    if ws_lookups:
        rows.append("workspace pool:")
        rows.append(
            f"  hits/misses      : {c.get('workspace_pool.hits', 0):.0f}"
            f"/{c.get('workspace_pool.misses', 0):.0f}")
    rows.append("numeric health:")
    rows.append("  deflation ratio  : "
                + _fmt_stats(metrics.hist_stats("merge.deflation_ratio")))
    rows.append("  LAED4 iterations : "
                + _fmt_stats(metrics.hist_stats("secular.iterations")))
    rows.append("  givens chain len : "
                + _fmt_stats(metrics.hist_stats("merge.givens_chain_len")))
    hw = metrics.gauges.get("workspace.high_water_bytes")
    if hw is not None:
        rows.append(f"  workspace peak   : {hw / 1e6:.2f} MB")
    return "\n".join(rows)
