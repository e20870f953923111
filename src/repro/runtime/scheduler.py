"""Wall-clock execution substrates for a :class:`~repro.runtime.dag.TaskGraph`.

The shared engine (:mod:`repro.runtime.engine`) owns readiness,
cancellation, fault injection and emission; this module contributes the
in-process substrates that execute under it:

* :class:`SequentialScheduler` — runs tasks in submission order on the
  calling thread; the reference for correctness and for the paper's
  "sequential execution" timings.
* :class:`WorkerPool` — the thread substrate: ``n_workers`` persistent
  OS threads sharing one priority
  :class:`~repro.runtime.engine.ReadyQueue` under one lock.  Under that
  lock a worker retires its previous task (successor countdown, newly
  ready pushes, run completion) and pops its next one or parks; it runs
  the task outside the lock.  Scheduling is pure Python under the GIL,
  so more queues or finer locks would add per-task cost, not
  concurrency; one lock keeps dispatch small next to the paper's
  fine-grained panel tasks (the QUARK design point).  NumPy/BLAS
  kernels release the GIL, so the heavy tasks (``UpdateVect`` GEMMs,
  vectorized secular solves) genuinely overlap.  Many sub-graphs
  execute fused: each :meth:`WorkerPool.submit` returns an
  :class:`~repro.runtime.engine.EngineRun` isolation record.
* :class:`ThreadScheduler` — the one-shot facade over the same
  substrate: ``run(graph)`` spins up a private pool, submits the graph,
  joins the workers and returns the trace (the paper's 1-16 thread
  study shape).

All substrates record a :class:`~repro.runtime.trace.Trace` using
wall-clock time.  Deterministic multicore *timing* studies use the
discrete-event substrate in :mod:`repro.runtime.simulator` instead.
No substrate re-checks a graph for cycles:
:meth:`~repro.runtime.task.Task.add_successor` only accepts edges that
point forward in submission order.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Optional

from ..errors import SchedulerError
from .dag import TaskGraph
from .engine import EngineRun, ReadyQueue, task_failed
from .trace import Trace, TraceEvent


def default_thread_workers() -> int:
    """Default worker count for ``backend="threads"``: one per core.

    Derived from ``os.cpu_count()`` (clamped to [1, 32]) so defaults
    scale with the machine like the paper's 1-16 thread study assumes,
    instead of the historical hardcoded 4.
    """
    return max(1, min(32, os.cpu_count() or 4))


class SequentialScheduler:
    """Run the whole graph on the calling thread, in submission order."""

    def __init__(self, injector=None) -> None:
        self.trace: Optional[Trace] = None
        self.injector = injector

    def run(self, graph: TaskGraph) -> Trace:
        trace = Trace(n_workers=1)
        injector = self.injector
        record = trace.record
        t0 = time.perf_counter()
        for task in graph.tasks:
            a = time.perf_counter() - t0
            try:
                if injector is not None:
                    injector.maybe_fail(task)
                task.run()
            except Exception as exc:
                # First failure cancels the run: the remaining tasks are
                # dropped and the exception propagates with task context
                # and the partial trace.
                raise task_failed(task, exc, trace=trace) from exc
            task.mark_done()
            b = time.perf_counter() - t0
            record(TraceEvent(task.uid, task.name, 0, a, b, task.tag,
                              task.priority, task.seq))
        self.trace = trace
        return trace


# ---------------------------------------------------------------------------
# Persistent worker pool: fused execution of many sub-graphs
# ---------------------------------------------------------------------------


#: Sentinel: "use the pool's default proper worker names".
_POOL_DEFAULT = object()


class WorkerPool:
    """Persistent worker pool executing fused sub-graphs.

    The thread substrate of the engine: one priority
    :class:`~repro.runtime.engine.ReadyQueue` and every run's lifecycle
    fields are guarded by the pool's single condition variable.  The
    ``n_workers`` OS threads are spawned **once** and park between
    solves instead of being joined: :meth:`submit` seeds a new
    sub-graph's source tasks into the queue and returns immediately with
    an :class:`~repro.runtime.engine.EngineRun` handle, so panel tasks
    from one problem fill workers idled by another problem's serial
    merge spine (the fused super-DAG of the session layer).

    Isolation is per run: dependency countdowns, traces, fault injectors
    and failure state are all run-local (owned by the
    :class:`EngineRun`); the only shared state is the ready queue and
    its lock.
    """

    def __init__(self, n_workers: Optional[int] = None,
                 worker_names=_POOL_DEFAULT, record_idle: bool = False):
        if n_workers is None:
            n_workers = default_thread_workers()
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        if worker_names is _POOL_DEFAULT:
            names = [f"pool-worker-{w}" for w in range(n_workers)]
        else:
            names = list(worker_names) if worker_names else None
        self._worker_names = names
        #: Absolute ``(wid, park_start, park_end)`` intervals, collected
        #: only when ``record_idle`` (the one-shot facade's idle track).
        self._idles: Optional[list[tuple[int, float, float]]] = (
            [] if record_idle else None)
        self._parked = 0        # workers blocked on the condvar now
        self._ready = ReadyQueue()
        self._cv = threading.Condition()
        self._shutdown = False
        self._order = 0          # global submission-order counter
        self._active: set[EngineRun] = set()  # submitted, not completed
        self.runs_completed = 0
        self._threads = [
            threading.Thread(target=self._worker, args=(w,), daemon=True,
                             name=f"repro-pool-{w}")
            for w in range(n_workers)]
        for th in self._threads:
            th.start()

    # -- submission ------------------------------------------------------
    def submit(self, graph: TaskGraph, *, injector=None,
               on_done: Optional[Callable[[EngineRun], None]] = None
               ) -> EngineRun:
        """Fuse ``graph`` into the running super-DAG; returns its handle."""
        with self._cv:
            if self._shutdown:
                raise SchedulerError("worker pool is shut down")
            run = EngineRun(graph, self._order, injector=injector,
                            on_done=on_done)
            self._order += max(1, run.n_tasks)
            if run.n_tasks == 0:
                run.finalized = True
                self.runs_completed += 1
            else:
                self._active.add(run)
                push = self._ready.push
                base = run.order_base
                seeded = 0
                for t in graph.tasks:
                    if t.n_deps == 0:
                        push(t, run, base)
                        seeded += 1
                if self._parked:
                    self._cv.notify(seeded)
        if run.n_tasks == 0:
            # Completed outside the lock: on_done hooks may take locks.
            self._complete(run)
        return run

    # -- worker loop -----------------------------------------------------
    def _worker(self, wid: int) -> None:
        cv = self._cv
        pop = self._ready.pop
        idles = self._idles
        perf = time.perf_counter
        task = run = failure = None     # the task to retire next
        while True:
            with cv:
                done = (self._retire(task, run, failure)
                        if run is not None else None)
                task = run = failure = None
                while done is None:
                    if self._shutdown:
                        return
                    entry = pop()
                    if entry is None:
                        pa = perf()
                        self._parked += 1
                        cv.wait()
                        self._parked -= 1
                        if idles is not None:
                            idles.append((wid, pa, perf()))
                        continue
                    task, run = entry
                    if not run.finalized:
                        run.inflight += 1
                        break
                    # A failed run's queued tasks drain as no-ops.
                    task = run = None
            if done is not None:
                # Emit before parking: a completion claimed here is
                # nobody else's to signal.
                self._complete(done)
                continue
            inj = run.injector
            a = perf()
            try:
                if inj is not None:
                    inj.maybe_fail(task)
                task.run()
            except Exception as exc:
                failure = task_failed(task, exc, worker=wid)
                continue
            except BaseException as exc:    # KeyboardInterrupt & co.
                failure = exc
                continue
            b = perf()
            task.mark_done()
            run.events.append(TraceEvent(task.uid, task.name, wid,
                                         a - run.t0, b - run.t0, task.tag,
                                         task.priority, task.seq))

    def _retire(self, task, run: EngineRun,
                failure: Optional[BaseException]) -> Optional[EngineRun]:
        """Account for a task that returned or raised; called under the
        pool lock.  Returns ``run`` when this retirement completes it:
        the caller then owns the completion and must :meth:`_complete`
        it outside the lock.

        A failure finalizes the run (its queued tasks drain as no-ops)
        but completion waits until no task of the run is executing: the
        on_done hook may hand the run's workspace buffers to a
        concurrent same-shape solve.
        """
        run.inflight -= 1
        run.remaining -= 1
        if failure is not None:
            run.errors.append(failure)
            run.finalized = True
        elif not run.finalized:
            made_ready = run.release(task, self._ready)
            # This worker pops one of them itself.
            if made_ready > 1 and self._parked:
                self._cv.notify(made_ready - 1)
            if run.remaining == 0:
                run.finalized = True
        if not run.finalized or run.inflight:
            return None
        self.runs_completed += 1
        self._active.discard(run)
        return run

    # -- run completion --------------------------------------------------
    def _complete(self, run: EngineRun) -> None:
        """The engine's single emission point, outside the pool lock
        (``on_done`` hooks may take other locks)."""
        run.finish(self.n_workers, self._worker_names)

    # -- lifecycle -------------------------------------------------------
    def shutdown(self) -> None:
        """Stop and join the workers.

        Runs that still have unexecuted tasks when the workers exit are
        *failed* (a :class:`SchedulerError` is recorded and their
        completion hooks run), never silently abandoned — a waiting
        ``EngineRun.result()`` raises instead of blocking forever.
        Idempotent.
        """
        with self._cv:
            if self._shutdown:
                return
            self._shutdown = True
            self._cv.notify_all()
        for th in self._threads:
            th.join()
        with self._cv:
            stranded = list(self._active)
            self._active.clear()
            self.runs_completed += len(stranded)
            for run in stranded:
                run.errors.append(SchedulerError(
                    "worker pool shut down before run completed"))
                run.finalized = True
        for run in stranded:
            self._complete(run)

    # -- introspection (health endpoint) ---------------------------------
    @property
    def idle_intervals(self) -> list[tuple[int, float, float]]:
        """Absolute park intervals (empty unless ``record_idle``)."""
        return self._idles or []

    @property
    def parked(self) -> int:
        """Workers currently blocked on the idle condvar."""
        return self._parked

    @property
    def workers_alive(self) -> int:
        return sum(1 for th in self._threads if th.is_alive())

    @property
    def closed(self) -> bool:
        return self._shutdown

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class ThreadScheduler:
    """One-shot facade over the thread substrate.

    ``run(graph)`` spins up a private :class:`WorkerPool`, submits the
    graph, joins the workers and returns the trace — the shape of the
    paper's 1-16 thread scaling study, where every measurement starts
    and ends with a quiesced machine.  Scheduling semantics (one
    priority queue under one lock, condvar parking, first-failure
    cancellation) are exactly the pool's; this class only adds the
    join-and-raise protocol and the idle-time track on the returned
    trace.
    """

    def __init__(self, n_workers: Optional[int] = None, injector=None):
        if n_workers is None:
            n_workers = default_thread_workers()
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.injector = injector
        self.trace: Optional[Trace] = None

    def run(self, graph: TaskGraph) -> Trace:
        pool = WorkerPool(self.n_workers, worker_names=None,
                          record_idle=True)
        try:
            run = pool.submit(graph, injector=self.injector)
            run.wait()
        finally:
            pool.shutdown()
        if run.errors:
            # All workers are joined; the queued-but-never-run tasks
            # were drained as no-ops.  Surface the first failure, typed
            # (it carries the partial trace).
            raise run.errors[0]
        trace = run.trace
        for w, pa, pb in pool.idle_intervals:
            trace.record_idle(w, pa - run.t0, pb - run.t0)
        self.trace = trace
        return trace
