"""Per-layer probes for the traced ledger run.

Spans come from the benchmark's own wrappers around each layer's public
entry points, plus the interpreter's garbage-collector callbacks; nothing
inside ``src/`` is instrumented.  The engine's per-task intervals come
from the ``Trace`` every ``DCResult`` already carries.
:meth:`Tracer.install` patches the probes in and :meth:`Tracer.uninstall`
restores the originals, so the timing run never sees a wrapper.

A probe whose target no longer exists (a later change may delete or
rename a layer) is reported in ``Tracer.missing`` with a reason, and the
metrics that depend on it come out as ``None`` instead of crashing.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

#: Closure layers in attribution priority: an instant of a round's wall
#: time is charged to the first layer in this order whose interval covers
#: it.  A garbage-collector pass holds the interpreter lock, so it comes
#: first (gen-2 passes take 40-65 ms at n=2000 and land on whichever
#: thread allocates, often inside another layer); then the host-thread
#: layers, then task execution on the engine, then whatever
#: ``SolverSession.submit`` does around them.
LAYERS = ("gc", "validate", "context", "instantiate", "finalize",
          "makespan", "submit")

#: Benchmark span name -> closure layer.
SPAN_LAYER = {"python.gc": "gc",
              "session.validate": "validate", "session.context": "context",
              "graph.build": "instantiate", "graph.instantiate": "instantiate",
              "session.finalize": "finalize", "session.submit": "submit"}

#: Kernel (task name) -> ledger class; every other task is ``other``.
KERNEL_CLASS = {
    "STEDC": "leaf", "LASET": "leaf",
    "Compute_deflation": "deflate",
    "LAED4": "secular",
    "ComputeLocalW": "stabilize", "ReduceW": "stabilize",
    "ComputeVect": "stabilize",
    "ApplyGivens": "movement", "PermuteV": "movement",
    "CopyBackDeflated": "movement",
    "UpdateVect": "gemm",
    "GivensStrip": "strip", "PermuteStrip": "strip", "UpdateStrip": "strip",
    "UpdateEig": "strip",
}
KERNEL_CLASSES = ("leaf", "deflate", "secular", "stabilize", "movement",
                  "gemm", "strip", "other")

#: Largest unattributed share of a round's wall time the closure check
#: accepts.
CLOSURE_LIMIT = 0.05


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    solve: Optional[int] = None


class Tracer:
    """In-memory spans, the engine clock origin of every run, and the
    worker pools whose park intervals give ``engine.idle_s``.

    :meth:`install` / :meth:`uninstall` add and remove the span and
    origin probes around each traced round; :meth:`install_pool_factory`
    stays for the whole traced run and :meth:`close` removes everything.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        #: ``id(graph)`` -> perf_counter origin of that run's trace times.
        self.origins: dict[int, float] = {}
        #: Worker pools created while installed (their park intervals).
        self.pools: list = []
        #: Probe name -> why it could not be installed.
        self.missing: dict[str, str] = {}
        #: Solve id stamped on spans; set by the benchmark around calls.
        self.solve: Optional[int] = None
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []           # span and origin probes
        self._undo_factory: list[tuple] = []   # the pool factory

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # Spans are appended without a lock: list.append is atomic under the
    # interpreter lock, and a lock here could deadlock when a collection
    # starts while the same thread holds it.
    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sp = Span(next(self._ids), name, time.perf_counter(),
                  parent=stack[-1] if stack else None, solve=self.solve)
        stack.append(sp.sid)
        try:
            yield sp
        finally:
            stack.pop()
            sp.end = time.perf_counter()
            if self.enabled:
                self.spans.append(sp)

    def _on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: one ``python.gc`` span per collection."""
        if phase == "start":
            self._local.gc_start = time.perf_counter()
            return
        start = getattr(self._local, "gc_start", None)
        self._local.gc_start = None
        if start is None or not self.enabled:
            return
        stack = self._stack()
        self.spans.append(Span(next(self._ids), "python.gc", start,
                               time.perf_counter(),
                               parent=stack[-1] if stack else None,
                               solve=self.solve))

    # -- patching --------------------------------------------------------
    def _patch(self, probe: str, target: str, attr: str, make,
               undo: Optional[list] = None) -> None:
        """Replace ``target.attr`` by ``make(original)``; ``target`` is
        ``module`` or ``module:name`` (a class or an instance)."""
        modname, _, owner_name = target.partition(":")
        try:
            owner = importlib.import_module(modname)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            self.missing[probe] = f"{target}.{attr} unavailable: {exc}"
            return
        own = vars(owner).get(attr, _ABSENT)
        setattr(owner, attr, make(original))
        (self._undo if undo is None else undo).append((owner, attr, own))

    @staticmethod
    def _restore(undo: list) -> None:
        while undo:
            owner, attr, own = undo.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def _timed(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def uninstall(self) -> None:
        """Remove the span and origin probes (recorded spans stay)."""
        self.enabled = False
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._restore(self._undo)

    def close(self) -> None:
        """Remove every probe, the pool factory included."""
        self.uninstall()
        self._restore(self._undo_factory)

    def install(self) -> None:
        """Patch every probe in; call :meth:`uninstall` to remove them."""
        session = "repro.core.session"
        self._patch("session.validate", session, "validate_tridiagonal",
                    self._timed("session.validate"))
        self._patch("session.validate", session, "validate_subset",
                    self._timed("session.validate"))
        self._patch("session.context", session, "DCContext",
                    self._timed("session.context"))
        self._patch("session.submit", f"{session}:SolverSession", "submit",
                    self._timed("session.submit"))
        self._patch("session.finalize", "repro.core.merge:DCContext",
                    "result", self._timed("session.finalize"))
        self._patch("graph", "repro.core.graph_cache:graph_template_cache",
                    "get_or_build", self._graph_probe)
        scheduler = "repro.runtime.scheduler"
        self._patch("engine.origin", f"{scheduler}:WorkerPool", "submit",
                    self._pool_origin)
        self._patch("engine.origin", f"{scheduler}:SequentialScheduler",
                    "run", self._sequential_origin)
        gc.callbacks.append(self._on_gc)
        self.enabled = True

    def install_pool_factory(self) -> None:
        """Make the session's worker pools record park intervals.

        Stays installed for the whole traced run: a session creates its
        pool once, at its first submit.
        """
        self._patch("engine.idle", "repro.core.session", "WorkerPool",
                    self._pool_factory, undo=self._undo_factory)

    # -- probe bodies ----------------------------------------------------
    def _graph_probe(self, get_or_build):
        """Name the span ``graph.build`` on a cache miss and
        ``graph.instantiate`` on a hit."""
        cache = get_or_build.__self__

        @functools.wraps(get_or_build)
        def wrapper(ctx, key):
            misses = cache.misses
            with self.span("graph.instantiate") as sp:
                out = get_or_build(ctx, key)
                if cache.misses != misses:
                    sp.name = "graph.build"
            return out
        return wrapper

    def _pool_origin(self, submit):
        @functools.wraps(submit)
        def wrapper(pool, graph, **kwargs):
            run = submit(pool, graph, **kwargs)
            self.origins[id(graph)] = run.t0
            return run
        return wrapper

    def _sequential_origin(self, run):
        @functools.wraps(run)
        def wrapper(scheduler, graph):
            self.origins[id(graph)] = time.perf_counter()
            return run(scheduler, graph)
        return wrapper

    def _pool_factory(self, pool_cls):
        def make_pool(*args, **kwargs):
            pool = pool_cls(*args, record_idle=True, **kwargs)
            self.pools.append(pool)
            return pool
        return make_pool


_ABSENT = object()


# ---------------------------------------------------------------------------
# Per-round accounting
# ---------------------------------------------------------------------------


def _clip(a: float, b: float, lo: float, hi: float) -> float:
    return max(0.0, min(b, hi) - max(a, lo))


def attribute(w0: float, w1: float,
              intervals: list[tuple[str, float, float]]) -> dict:
    """Split the wall interval ``[w0, w1]`` among :data:`LAYERS`.

    Each instant goes to the highest-priority layer whose interval covers
    it, or to ``unattributed``; the parts therefore sum to the wall time
    exactly, and ``unattributed`` is the closure error.
    """
    rank = {layer: i for i, layer in enumerate(LAYERS)}
    cuts = sorted({w0, w1, *(min(max(t, w0), w1)
                             for _, a, b in intervals for t in (a, b))})
    out = dict.fromkeys(LAYERS, 0.0)
    out["unattributed"] = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        best = None
        for layer, s, e in intervals:
            if s <= mid < e and (best is None or rank[layer] < rank[best]):
                best = layer
        out[best or "unattributed"] += b - a
    return out


def round_ledger(tracer: Tracer, spans: list[Span], results: list,
                 w0: float, w1: float) -> dict:
    """Layer breakdown, engine and kernel figures of one traced round.

    ``results`` are the round's ``DCResult`` objects; ``spans`` the
    benchmark spans recorded during the round.
    """
    intervals = [(SPAN_LAYER[sp.name], sp.start, sp.end) for sp in spans
                 if sp.name in SPAN_LAYER]
    n_tasks = 0
    busy = 0.0
    kernels = {c: [0.0, 0] for c in KERNEL_CLASSES}
    starts, ends = [], []
    aligned = True
    for res in results:
        events = res.trace.events
        if not events:
            continue
        n_tasks += len(events)
        for ev in events:
            k = kernels[KERNEL_CLASS.get(ev.name, "other")]
            k[0] += ev.duration
            k[1] += 1
            busy += ev.duration
        origin = tracer.origins.get(id(res.graph))
        if origin is None:
            aligned = False
            continue
        starts.append(origin + min(ev.t_start for ev in events))
        ends.append(origin + max(ev.t_end for ev in events))
        intervals.append(("makespan", starts[-1], ends[-1]))
    parts = attribute(w0, w1, intervals)
    wall = w1 - w0
    out = {"wall_s": wall, "layers": parts,
           "unattributed_share": parts["unattributed"] / wall if wall else 0.0,
           "n_tasks": n_tasks,
           "kernels": {c: {"s": v[0], "tasks": v[1]}
                       for c, v in kernels.items()},
           "engine": None}
    if not aligned or not starts:
        return out
    t_a, t_b = min(starts), max(ends)
    makespan = t_b - t_a
    workers = max(res.trace.n_workers for res in results)
    idle = sum(_clip(pa, pb, t_a, t_b) for pool in tracer.pools
               for _, pa, pb in pool.idle_intervals)
    gap = workers * makespan - busy - idle
    out["engine"] = {
        "makespan_s": makespan, "busy_s": busy, "idle_s": idle,
        "gap_s": gap,
        "dispatch_us": 1e6 * gap / n_tasks,
        "parallelism": busy / makespan if makespan > 0 else None,
    }
    return out


# ---------------------------------------------------------------------------
# Chrome / Perfetto export
# ---------------------------------------------------------------------------


def write_chrome_trace(path, tracer: Tracer, spans: list[Span],
                       results: list) -> None:
    """Write benchmark spans on a ``bench`` track (collector passes on a
    row of their own) and engine tasks on per-worker tracks, in Chrome
    trace format; timestamps in microseconds since the tracer started."""
    events: list[dict] = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "bench"}},
        {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
         "args": {"name": "benchmark thread"}},
        {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
         "args": {"name": "python gc (any thread)"}},
    ]
    for sp in sorted(spans, key=lambda s: s.start):
        events.append({
            "name": sp.name, "cat": "bench", "ph": "X", "pid": 1,
            "tid": 1 if sp.name == "python.gc" else 0,
            "ts": (sp.start - tracer.t0) * 1e6,
            "dur": max((sp.end - sp.start) * 1e6, 0.01),
            "args": {"span": sp.sid, "parent": sp.parent,
                     "solve": sp.solve}})
    seen = set()
    for res in results:
        origin = tracer.origins.get(id(res.graph))
        if origin is None:
            continue
        for ev in res.trace.to_chrome_trace(ts_shift=origin - tracer.t0):
            if ev["ph"] == "M":
                key = (ev["pid"], ev["tid"], ev["name"])
                if key in seen:
                    continue
                seen.add(key)
            events.append(ev)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# ---------------------------------------------------------------------------
# No-op dispatch probe
# ---------------------------------------------------------------------------


def _noop(*_args) -> None:
    return None


def noop_dispatch_us(d, e, jobz: str, n_workers: int = 2,
                     reps: int = 5) -> tuple[dict, Optional[str]]:
    """Per-task wall cost of running a workload's DAG with no-op payloads.

    Builds the graph with ``submit_dc`` exactly as a solve would, swaps
    every task's function for a no-op, and times the whole run on the
    sequential substrate (``w1``) and on a ``ThreadScheduler`` with
    ``n_workers`` threads (``w2``; includes the pool start and join).
    Returns medians over ``reps`` runs, in microseconds per task, and
    the reason when the probe could not run.
    """
    try:
        from repro.core import DCContext, DCOptions, submit_dc
        from repro.runtime import (SequentialScheduler, TaskGraph,
                                   ThreadScheduler)
        graph = TaskGraph()
        submit_dc(graph, DCContext(d, e, DCOptions(jobz=jobz)))
    except (ImportError, AttributeError, TypeError) as exc:
        return {"w1": None, "w2": None}, f"no-op probe unavailable: {exc}"
    for task in graph.tasks:
        task.func = _noop
    n = len(graph.tasks)
    out = {}
    for label, make in (("w1", SequentialScheduler),
                         ("w2", lambda: ThreadScheduler(n_workers))):
        samples = []
        for _ in range(reps):
            scheduler = make()
            t0 = time.perf_counter()
            scheduler.run(graph)
            samples.append(time.perf_counter() - t0)
        out[label] = 1e6 * statistics.median(samples) / n
    return out, None
