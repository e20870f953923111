"""Solver sessions: persistent workers, fused batch super-DAGs, pooled
workspaces.

The paper's central claim is that a matrix-independent task flow lets
independent (sub)problems share one set of cores without barriers.  A
:class:`SolverSession` applies that claim *across* solves:

* one persistent :class:`~repro.runtime.scheduler.WorkerPool` lives for
  the session's lifetime — workers park between solves instead of being
  spawned and joined per solve;
* :meth:`SolverSession.submit` instantiates a problem's task graph from
  the matrix-independent template cache and fuses it into the pool's
  running super-DAG, so panel tasks from problem B fill workers idled by
  problem A's serial merge spine.  Failure isolation and fault injection
  stay per sub-graph (one failing problem never cancels its batch-mates);
* a :class:`WorkspacePool` arena recycles the n²-sized ``V``/``Vws`` (and
  per-merge ``X``) buffers across same-shape solves, taking workspace
  allocation off the per-solve path.

``dc_eigh`` and ``dc_eigh_many`` are thin wrappers over a one-shot
session, so single-solve behavior — numerics, traces, error types — is
unchanged; results from concurrent submissions are bitwise
identical to one-shot solves (any topological order of the fused DAG is
valid, and every recycled buffer location is written before it is read).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Optional

import numpy as np

from ..errors import (ReproError, SchedulerError, validate_subset,
                      validate_tridiagonal)
from ..obs.live import (SessionMetrics, resolve_postmortem_dir,
                        write_postmortem)
from ..runtime.dag import TaskGraph
from ..runtime.faults import FaultInjector
from ..runtime.quark import Quark, validate_backend
from ..runtime.scheduler import WorkerPool, default_thread_workers
from ..runtime.simulator import Machine
from .graph_cache import graph_template_cache, template_key
from .merge import DCContext
from .options import DCOptions
from .tasks import DCGraphInfo, submit_dc
from .tree import build_tree

__all__ = ["SolverSession", "SolveHandle", "WorkspacePool"]


class WorkspacePool:
    """Arena recycling solve workspaces across same-shape solves.

    Buffers are keyed by exact shape and handed out **dirty**: the D&C
    task flow writes every V/Vws/X location before reading it, so reuse
    is bitwise exact while skipping the allocation + page-zeroing cost
    of fresh ``np.zeros`` calls (2 × n² doubles per solve).  The result
    buffer of a successful solve (``Vws``, which holds the sorted
    eigenvectors) is *forgotten* — its ownership passes to the caller —
    so results never alias a recycled buffer.

    Retention is bounded twice: per shape (``max_free_per_shape``) and
    globally (``max_free_bytes``, LRU-by-shape eviction).  The global
    cap matters because merge ``X`` buffers are ``(k, k)`` with a
    deflation-dependent — i.e. matrix-dependent — ``k``, so a long-lived
    session over varied inputs would otherwise accumulate a free list
    for every distinct ``k`` it ever saw.

    ``high_water_bytes`` tracks the peak bytes owned by the arena
    (free + lent out); :meth:`stats` reports it with the hit/miss
    counters.
    """

    def __init__(self, max_free_per_shape: int = 8,
                 max_free_bytes: int = 256 * 2 ** 20):
        self.max_free_per_shape = max_free_per_shape
        self.max_free_bytes = max_free_bytes
        self._lock = threading.Lock()
        # Shape -> free buffers, in least-recently-used shape order.
        self._free: OrderedDict[tuple[int, ...], list[np.ndarray]] = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.owned_bytes = 0
        self.free_bytes = 0
        self.high_water_bytes = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """A Fortran-ordered float64 buffer of ``shape`` (zeroed only
        when freshly allocated; recycled buffers come back dirty)."""
        with self._lock:
            stack = self._free.get(shape)
            if stack:
                buf = stack.pop()
                if stack:
                    self._free.move_to_end(shape)
                else:
                    del self._free[shape]
                self.free_bytes -= buf.nbytes
                self.hits += 1
                return buf
            self.misses += 1
            nbytes = 8 * int(np.prod(shape))
            self.owned_bytes += nbytes
            if self.owned_bytes > self.high_water_bytes:
                self.high_water_bytes = self.owned_bytes
        return np.zeros(shape, order="F")

    def release(self, buf: Optional[np.ndarray]) -> None:
        """Return a buffer for reuse.

        Dropped when the shape's free list is full; past the global
        byte cap, whole least-recently-used *shapes* are evicted, so
        distinct-shape churn cannot grow the arena without bound.
        """
        if buf is None or buf.size == 0:
            return
        with self._lock:
            stack = self._free.get(buf.shape)
            if stack is not None and len(stack) >= self.max_free_per_shape:
                self.owned_bytes -= buf.nbytes
                return
            if stack is None:
                stack = self._free[buf.shape] = []
            else:
                self._free.move_to_end(buf.shape)
            stack.append(buf)
            self.free_bytes += buf.nbytes
            while self.free_bytes > self.max_free_bytes and self._free:
                lru_shape, lru_stack = next(iter(self._free.items()))
                victim = lru_stack.pop()
                if not lru_stack:
                    del self._free[lru_shape]
                self.free_bytes -= victim.nbytes
                self.owned_bytes -= victim.nbytes
                self.evictions += 1

    def forget(self, buf: Optional[np.ndarray]) -> None:
        """Transfer a buffer's ownership out of the pool (result hand-off)."""
        if buf is None or buf.size == 0:
            return
        with self._lock:
            self.owned_bytes -= buf.nbytes

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {"hits": self.hits, "misses": self.misses,
                    "hit_rate": self.hits / lookups if lookups else None,
                    "evictions": self.evictions,
                    "owned_bytes": self.owned_bytes,
                    "free_bytes": self.free_bytes,
                    "high_water_bytes": self.high_water_bytes,
                    "free_buffers": sum(len(v) for v in
                                        self._free.values())}


class SolveHandle:
    """Future-style handle for one submitted problem.

    ``result()`` blocks until the solve completes and returns ``(lam,
    V)`` (or a :class:`~repro.core.solver.DCResult` when the submission
    asked for ``full_result``); a failed solve re-raises its typed
    :class:`~repro.errors.ReproError`.  ``latency_s`` is the submit →
    completion wall time, the per-solve latency of a batch.
    """

    __slots__ = ("t_submit", "t_done", "_run", "_ctx", "_graph", "_info",
                 "_full", "_value", "_error", "_has_value")

    def __init__(self, ctx=None, graph=None, info=None, full=False):
        self.t_submit = time.perf_counter()
        self.t_done: Optional[float] = None
        self._run = None
        self._ctx = ctx
        self._graph = graph
        self._info = info
        self._full = full
        self._value = None
        self._error: Optional[BaseException] = None
        self._has_value = False

    def done(self) -> bool:
        """True once the solve has finished (successfully or not)."""
        return self._run is None or self._run.wait(0)

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        """The solve's error, or None on success.  Blocks like result()."""
        self._wait(timeout)
        return self._error

    def result(self, timeout: Optional[float] = None):
        """Block for completion; the solve's result or raised error."""
        self._wait(timeout)
        if self._error is not None:
            raise self._error
        if not self._has_value:
            # Finalization is pure reads of D_sorted/Vws, so a race
            # between two result() callers is benign.
            lam, V = self._ctx.result()
            if self._full:
                from .solver import DCResult
                self._value = DCResult(lam, V, self._run.trace,
                                       self._graph, self._info)
            else:
                self._value = (lam, V)
            self._has_value = True
        return self._value

    @property
    def latency_s(self) -> Optional[float]:
        """Submit → completion wall time (None while still running)."""
        return None if self.t_done is None else self.t_done - self.t_submit

    def _wait(self, timeout: Optional[float]) -> None:
        run = self._run
        if run is not None:
            if not run.wait(timeout):
                raise SchedulerError("timed out waiting for solve")
            if run.failed and self._error is None:
                self._error = run.errors[0]


class SolverSession:
    """A long-lived eigensolver service: one worker pool, many solves.

    Parameters
    ----------
    backend:
        ``"threads"`` (default) runs concurrent submissions on one
        persistent worker pool, fused into a single super-DAG.
        ``"sequential"`` / ``"simulated"`` execute each submission
        eagerly on the calling thread (still with pooled workspaces and
        cached graph templates) — useful for debugging and equivalence
        testing against the same API.
    n_workers / machine:
        Pool size (defaults to one per core, clamped) / virtual machine
        for the simulated backend.
    options:
        Session-wide :class:`DCOptions`.  ``reuse_graph`` is forced on:
        the task graph is matrix independent, so same-shape submissions
        skip dependency analysis entirely.  Per-submission ``options``
        overrides are accepted by :meth:`submit`.
    max_inflight:
        Bound on concurrently executing fused sub-graphs; further
        ``submit`` calls block until a slot frees.  Caps the live
        workspace footprint at ``max_inflight × 3n²`` doubles.
        Default: ``max(2, min(8, n_workers))``.
    serve_port / serve_host:
        When ``serve_port`` is not None, start a background
        :class:`~repro.obs.live.MetricsServer` exposing ``/metrics``,
        ``/healthz`` and ``/debug/state`` (``0`` binds an ephemeral
        port; read it from ``session.server.port``).

    Every solve's trace — the partial trace of a failed one — feeds
    :attr:`metrics` once, at completion, and is the event log a
    post-mortem bundle replays (see ``DCOptions.postmortem_dir``).

    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(self, *, backend: str = "threads",
                 n_workers: Optional[int] = None,
                 machine: Optional[Machine] = None,
                 options: Optional[DCOptions] = None,
                 max_inflight: Optional[int] = None,
                 serve_port: Optional[int] = None,
                 serve_host: str = "127.0.0.1",
                 _one_shot: bool = False):
        validate_backend(backend)
        self.backend = backend
        self.machine = machine if machine is not None else (
            Machine() if backend == "simulated" else None)
        if n_workers is None:
            n_workers = self.machine.n_cores if self.machine else (
                default_thread_workers() if backend == "threads" else 1)
        self.n_workers = n_workers
        self._one_shot = _one_shot
        opts = options or DCOptions()
        if not _one_shot:
            opts = opts.with_(reuse_graph=True)
        self.options = opts
        # A session pools workers (threads) and workspaces; a one-shot
        # solve (dc_eigh) does neither.
        self._persistent = backend == "threads" and not _one_shot
        self._workspace = None if _one_shot else WorkspacePool()
        self._pool = None
        self._lock = threading.Lock()
        self._outstanding: set[SolveHandle] = set()
        self._closed = False
        if max_inflight is None:
            max_inflight = max(2, min(8, self.n_workers))
        self.max_inflight = max_inflight
        self._slots = threading.BoundedSemaphore(max_inflight) \
            if self._persistent else None
        #: Always-on service observability (zero solver-numerics impact).
        self.metrics = SessionMetrics()
        self.server = None
        if serve_port is not None:
            from ..obs.live import MetricsServer
            self.server = MetricsServer(self, port=serve_port,
                                        host=serve_host)

    # -- public API ------------------------------------------------------
    def submit(self, d, e, *, subset=None, full_result: bool = False,
               options: Optional[DCOptions] = None) -> SolveHandle:
        """Solve asynchronously; returns a :class:`SolveHandle`.

        Input validation errors raise immediately; execution failures
        surface from ``handle.result()`` as typed
        :class:`~repro.errors.ReproError`\\ s, isolated to this problem.
        """
        if self._closed:
            raise SchedulerError("session is closed")
        opts = options if options is not None else self.options
        if not self._one_shot and not opts.reuse_graph:
            opts = opts.with_(reuse_graph=True)
        d, e = validate_tridiagonal(d, e)
        subset = validate_subset(subset, d.shape[0])
        if d.shape[0] == 1:
            return self._solve_n1(d, e, subset, full_result, opts)
        if self._persistent:
            return self._submit_pool(d, e, subset, full_result, opts)
        return self._submit_inline(d, e, subset, full_result, opts)

    def solve(self, d, e, *, subset=None, full_result: bool = False,
              options: Optional[DCOptions] = None):
        """Synchronous convenience: ``submit(...).result()``."""
        return self.submit(d, e, subset=subset, full_result=full_result,
                           options=options).result()

    def map(self, problems, *, subset=None, full_result: bool = False,
            raise_on_error: bool = False) -> list:
        """Solve a batch; result records in input order.

        Failures are isolated per problem: a failing solve produces a
        :class:`~repro.core.solver.SolveFailure` in its slot while its
        batch-mates complete.  ``raise_on_error=True`` re-raises the
        first (lowest-index) failure instead.
        """
        from .solver import SolveFailure
        handles: list = []
        for i, (d, e) in enumerate(problems):
            try:
                handles.append(self.submit(d, e, subset=subset,
                                           full_result=full_result))
            except ReproError as exc:
                if raise_on_error:
                    raise
                handles.append(SolveFailure(i, exc))
        out: list = []
        for i, h in enumerate(handles):
            if isinstance(h, SolveFailure):
                out.append(h)
                continue
            try:
                out.append(h.result())
            except ReproError as exc:
                if raise_on_error:
                    raise
                out.append(SolveFailure(i, exc))
        return out

    def stats(self) -> dict:
        """Session-level service stats: pool, workspaces, template cache."""
        out: dict = {"backend": self.backend, "n_workers": self.n_workers,
                     "graph_cache": graph_template_cache.stats()}
        if self._workspace is not None:
            out["workspace"] = self._workspace.stats()
        if self._pool is not None:
            out["runs_completed"] = self._pool.runs_completed
            out["pool"] = {"workers_alive": self._pool.workers_alive,
                           "workers_parked": self._pool.parked,
                           "inflight_runs": len(self._pool._active)}
        out["metrics"] = self.metrics.to_dict()
        return out

    def close(self, wait: bool = True) -> None:
        """Drain outstanding solves (``wait=True``) and stop the workers.

        Idempotent.  Further ``submit`` calls raise
        :class:`~repro.errors.SchedulerError`.  ``_closed`` flips under
        the session lock — the same lock ``_submit_pool`` holds while
        registering a handle — so every submission either lands in the
        drain snapshot below or observes the closed session and raises;
        a run that still slips into the pool is *failed* (not stranded)
        by ``WorkerPool.shutdown``.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            pending = list(self._outstanding)
        if already:
            return
        if wait:
            for h in pending:
                run = h._run
                if run is None:
                    # The submitter registered the handle but has not
                    # fused its graph yet; assignment is imminent.
                    deadline = time.perf_counter() + 1.0
                    while h._run is None and time.perf_counter() < deadline:
                        time.sleep(0.001)
                    run = h._run
                if run is not None:
                    run.wait()
        if self._pool is not None:
            self._pool.shutdown()
        if self.server is not None:
            self.server.close()

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -------------------------------------------------------
    def _instantiate(self, ctx: DCContext, opts: DCOptions
                     ) -> tuple[TaskGraph, DCGraphInfo]:
        """The graph for one solve: template cache hit or fresh analysis."""
        if opts.reuse_graph:
            key = template_key(ctx.n, opts,
                               None if ctx.subset is None
                               else ctx.subset.shape[0])
            return graph_template_cache.get_or_build(ctx, key)
        graph = TaskGraph()
        info = submit_dc(graph, ctx, build_tree(ctx.n, opts.minpart))
        return graph, info

    def _finish_solve(self, handle: SolveHandle, ctx: Optional[DCContext],
                      opts: DCOptions, error: Optional[BaseException],
                      trace) -> None:
        """Post-solve bookkeeping, shared by every execution path: fold
        the solve's ``trace`` (partial when it failed: the tasks that
        completed) and merge stats into the session metrics, and dump a
        post-mortem bundle when the solve failed or degraded to the
        STEQR fallback (and a bundle directory is configured).  Never
        raises — runs on pool completion hooks."""
        try:
            merge_stats = ctx.merge_stats if ctx is not None else []
        except Exception:
            merge_stats = []
        self.metrics.note_solve(
            handle.latency_s, merge_stats, failed=error is not None,
            n_tasks=len(trace.events) if trace is not None else 0,
            jobz=opts.jobz, trace=trace)
        fallback = any(s.fallback for s in merge_stats)
        if error is None and not fallback:
            return
        directory = resolve_postmortem_dir(opts)
        if directory is None:
            return
        try:
            write_postmortem(
                directory,
                reason="solve-failure" if error is not None
                       else "steqr-fallback",
                error=error, options=opts, trace=trace,
                session_stats=self.stats(), metrics=self.metrics)
        except OSError:
            pass        # an unwritable crash dir must not mask the solve

    def _solve_n1(self, d, e, subset, full_result, opts) -> SolveHandle:
        # The 1x1 fast path honours `subset` and `jobz` like the
        # general path.
        lam = d.copy() if subset is None else d[subset]
        V = None if opts.jobz == "N" else \
            np.ones((1, 1 if subset is None else subset.shape[0]))
        h = SolveHandle(full=full_result)
        if full_result:
            from .solver import DCResult
            q = Quark("sequential")
            h._value = DCResult(lam, V, q.barrier(), TaskGraph(),
                                DCGraphInfo(DCContext(d, e, opts),
                                            build_tree(1, 1)))
        else:
            h._value = (lam, V)
        h._has_value = True
        h.t_done = time.perf_counter()
        self.metrics.note_solve(h.latency_s, jobz=opts.jobz)
        return h

    def _submit_inline(self, d, e, subset, full_result, opts) -> SolveHandle:
        """Eager execution on the calling thread (sequential/simulated
        backends and one-shot sessions) — the classic ``dc_eigh`` path,
        plus workspace pooling when the session has an arena."""
        handle = SolveHandle(full=full_result)
        ctx = None
        info = None
        trace = None
        try:
            ctx = DCContext(d, e, opts, subset=subset,
                            workspace=self._workspace)
            quark = Quark(self.backend, n_workers=self.n_workers,
                          machine=self.machine,
                          fault_injection=opts.fault_injection)
            graph, info = self._instantiate(ctx, opts)
            quark.graph = graph
            trace = quark.barrier()
            lam, V = ctx.result()
            ctx.release_workspace(info.states.values(), keep_result=True)
            if full_result:
                from .solver import DCResult
                handle._value = DCResult(lam, V, trace, graph, info)
            else:
                handle._value = (lam, V)
            handle._has_value = True
        except ReproError as exc:
            if ctx is not None:
                ctx.release_workspace(
                    info.states.values() if info is not None else (),
                    keep_result=False)
            handle._error = exc
            trace = trace or getattr(exc, "trace", None)
        handle.t_done = time.perf_counter()
        self._finish_solve(handle, ctx, opts, handle._error, trace)
        return handle

    def _submit_pool(self, d, e, subset, full_result, opts) -> SolveHandle:
        """Fuse one problem's instantiated graph into the persistent
        pool's running super-DAG."""
        ctx = DCContext(d, e, opts, subset=subset, workspace=self._workspace)
        graph, info = self._instantiate(ctx, opts)
        injector = (FaultInjector(opts.fault_injection)
                    if opts.fault_injection is not None else None)
        handle = SolveHandle(ctx=ctx, graph=graph, info=info,
                             full=full_result)
        # Bound the live workspace footprint; released by the pool's
        # completion hook (a worker thread), so a blocked submit always
        # unblocks.
        self._slots.acquire()

        def _on_done(run, h=handle, o=opts):
            h._ctx.release_workspace(h._info.states.values(),
                                     keep_result=not run.failed)
            h.t_done = time.perf_counter()
            with self._lock:
                self._outstanding.discard(h)
            self._slots.release()
            self._finish_solve(h, h._ctx, o,
                               run.errors[0] if run.failed else None,
                               run.trace)

        try:
            with self._lock:
                # Re-checked under the lock: a concurrent close() either
                # sees this handle in _outstanding or this submit raises
                # — never a silently stranded handle.
                if self._closed:
                    raise SchedulerError("session is closed")
                if self._pool is None:
                    self._pool = WorkerPool(self.n_workers)
                pool = self._pool
                self._outstanding.add(handle)
            handle._run = pool.submit(graph, injector=injector,
                                      on_done=_on_done)
        except BaseException:
            # Rejected (e.g. close() won the race): nothing ran, so the
            # buffers the context took go straight back.
            ctx.release_workspace(info.states.values(), keep_result=False)
            with self._lock:
                self._outstanding.discard(handle)
            self._slots.release()
            raise
        return handle
