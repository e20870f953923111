"""Wall-clock execution substrates for a :class:`~repro.runtime.dag.TaskGraph`.

The shared engine (:mod:`repro.runtime.engine`) owns readiness,
cancellation, fault injection and emission; this module contributes the
in-process substrates that execute under it:

* :class:`SequentialScheduler` — runs tasks in submission order on the
  calling thread; the reference for correctness and for the paper's
  "sequential execution" timings.
* :class:`WorkerPool` — the work-stealing thread substrate: ``n_workers``
  persistent OS threads, each owning a priority
  :class:`~repro.runtime.engine.ReadyQueue`, resolving successor
  dependency counts with striped per-task locks and stealing from peers
  when their own queue runs dry.  A condition variable is used *only* to
  park idle workers — the task hot path (pop, run, resolve successors)
  never takes a global lock, which is what keeps per-task overhead low
  enough for the paper's fine-grained panel tasks (the QUARK design
  point).  NumPy/BLAS kernels release the GIL, so the heavy tasks
  (``UpdateVect`` GEMMs, vectorized secular solves) genuinely overlap.
  Many sub-graphs execute fused: each :meth:`WorkerPool.submit` returns
  an :class:`~repro.runtime.engine.EngineRun` isolation record.
* :class:`ThreadScheduler` — the one-shot facade over the same
  substrate: ``run(graph)`` spins up a private pool, submits the graph,
  joins the workers and returns the trace (the paper's 1-16 thread
  study shape).

All substrates record a :class:`~repro.runtime.trace.Trace` using
wall-clock time.  Deterministic multicore *timing* studies use the
discrete-event substrates in :mod:`repro.runtime.simulator` /
:mod:`repro.runtime.distributed` / :mod:`repro.runtime.hetero` instead.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Optional

from ..errors import SchedulerError
from .dag import TaskGraph
from .engine import EngineRun, ExecutionCore, ReadyQueue, WorkerStats
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

    def __init__(self, recorder=None, injector=None) -> None:
        self.trace: Optional[Trace] = None
        self.recorder = recorder
        self.injector = injector

    def run(self, graph: TaskGraph) -> Trace:
        graph.validate_acyclic()
        trace = Trace(n_workers=1)
        core = ExecutionCore(self.recorder, self.injector)
        guard = core.guard
        record = trace.record
        tasks = graph.tasks
        t0 = time.perf_counter()
        for i, task in enumerate(tasks):
            a = time.perf_counter() - t0
            try:
                guard(task)
                task.run()
            except Exception as exc:
                # First failure cancels the run: the remaining tasks are
                # dropped and the exception propagates with task context
                # and the partial trace.
                core.emit_failure(1, len(tasks) - i - 1)
                raise core.task_failed(task, exc, trace=trace) from exc
            task.mark_done()
            b = time.perf_counter() - t0
            record(TraceEvent(task.uid, task.name, 0, a, b, task.tag,
                              task.priority, task.seq))
        core.emit_success(len(tasks))
        self.trace = trace
        return trace


# ---------------------------------------------------------------------------
# Persistent worker pool: fused execution of many sub-graphs
# ---------------------------------------------------------------------------


#: Queue-depth samples buffered per worker before flushing to the
#: recorder (bounds telemetry memory in a long-lived pool).
_DEPTH_FLUSH = 1024

#: Sentinel: "use the pool's default proper worker names".
_POOL_DEFAULT = object()


class WorkerPool:
    """Persistent work-stealing worker pool executing fused sub-graphs.

    The thread substrate of the engine: per-worker priority queues
    (:class:`~repro.runtime.engine.ReadyQueue`), striped dependency
    counting via :meth:`EngineRun.release`, stealing on empty, condvar
    parking.  The ``n_workers`` OS threads are spawned **once** and park
    between solves instead of being joined: :meth:`submit` seeds a new
    sub-graph's source tasks into the worker queues and returns
    immediately with an :class:`~repro.runtime.engine.EngineRun` handle,
    so panel tasks from one problem fill workers idled by another
    problem's serial merge spine (the fused super-DAG of the session
    layer).

    Isolation is per run: dependency countdowns, traces, fault injectors
    and failure state are all run-local (owned by the
    :class:`EngineRun`); the only shared state is the ready queues and
    the idle condvar.
    """

    def __init__(self, n_workers: Optional[int] = None, n_stripes: int = 64,
                 recorder=None, worker_names=_POOL_DEFAULT,
                 record_idle: bool = False):
        if n_workers is None:
            n_workers = default_thread_workers()
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.n_stripes = max(1, n_stripes)
        self.recorder = recorder
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
        self._deques = [ReadyQueue(locked=True) for _ in range(n_workers)]
        self._stripes = [threading.Lock() for _ in range(self.n_stripes)]
        self._cv = threading.Condition()
        self._state = {"version": 0}
        self._shutdown = False
        self._order = 0          # global submission-order counter
        self._rr = 0             # round-robin seeding cursor
        self._active: set[EngineRun] = set()  # submitted, not completed
        self._t0 = time.perf_counter()       # pool epoch for telemetry
        self.runs_completed = 0
        observe = recorder is not None and getattr(recorder, "enabled",
                                                   False)
        self._wstats = ([WorkerStats() for _ in range(n_workers)]
                        if observe else None)
        self._threads = [
            threading.Thread(target=self._worker, args=(w,), daemon=True,
                             name=f"repro-pool-{w}")
            for w in range(n_workers)]
        for th in self._threads:
            th.start()

    # -- submission ------------------------------------------------------
    def submit(self, graph: TaskGraph, *, recorder=None, injector=None,
               on_done: Optional[Callable[[EngineRun], None]] = None
               ) -> EngineRun:
        """Fuse ``graph`` into the running super-DAG; returns its handle."""
        graph.validate_acyclic()
        with self._cv:
            if self._shutdown:
                raise SchedulerError("worker pool is shut down")
            run = EngineRun(graph, self._order, recorder=recorder,
                            injector=injector, on_done=on_done)
            self._order += max(1, run.n_tasks)
            if run.n_tasks == 0:
                run.finalized = True
            else:
                self._active.add(run)
                nw = self.n_workers
                seeded = self._rr
                base = run.order_base
                for t in graph.tasks:
                    if t.n_deps == 0:
                        self._deques[seeded % nw].push(t, run, base)
                        seeded += 1
                self._rr = seeded % nw
                self._state["version"] += 1
                self._cv.notify_all()
        if run.n_tasks == 0:
            # Completed outside the condvar: on_done hooks may take locks.
            self._complete(run)
        return run

    # -- worker loop -----------------------------------------------------
    def _try_pop(self, wid: int,
                 st: Optional[WorkerStats]) -> Optional[tuple]:
        entry = self._deques[wid].pop()
        if entry is not None:
            return entry
        if st is not None:
            st.steal_attempts += 1
        nw = self.n_workers
        for off in range(1, nw):
            entry = self._deques[(wid + off) % nw].pop()
            if entry is not None:
                if st is not None:
                    st.steal_successes += 1
                return entry
        return None

    def _worker(self, wid: int) -> None:
        my = self._deques[wid]
        cv = self._cv
        stripes = self._stripes
        n_stripes = self.n_stripes
        state = self._state
        st = self._wstats[wid] if self._wstats is not None else None
        task_failed = ExecutionCore.task_failed
        idles = self._idles
        while True:
            # Unlocked reads are safe under the GIL; the condvar re-checks
            # before parking, so no wakeup can be lost.
            if self._shutdown:
                return
            version = state["version"]
            entry = self._try_pop(wid, st)
            if entry is None:
                with cv:
                    if not self._shutdown and state["version"] == version:
                        pa = time.perf_counter()
                        self._parked += 1
                        # Timeout is a lost-wakeup safety net only.
                        cv.wait(timeout=0.05)
                        self._parked -= 1
                        pb = time.perf_counter()
                        if st is not None:
                            st.parks += 1
                            st.park_s += pb - pa
                        if idles is not None:
                            idles.append((wid, pa, pb))
                continue

            task, run = entry
            with run.lock:
                if run.finalized:
                    continue        # failed run: drain queued tasks as no-ops
                run.inflight += 1
            inj = run.injector
            a = time.perf_counter()
            try:
                if inj is not None:
                    inj.maybe_fail(task)
                task.run()
            except Exception as exc:
                self._fail_run(run, task_failed(task, exc, worker=wid))
                continue
            except BaseException as exc:    # KeyboardInterrupt & co.
                self._fail_run(run, exc)
                continue
            b = time.perf_counter()
            task.mark_done()
            run.events.append(TraceEvent(task.uid, task.name, wid,
                                         a - run.t0, b - run.t0, task.tag,
                                         task.priority, task.seq))

            made_ready = 0
            if not run.failed:
                if st is not None:
                    ra = time.perf_counter()
                base = run.order_base
                for s in run.release(task, stripes, n_stripes):
                    my.push(s, run, base)      # locality: keep it local
                    made_ready += 1
                if st is not None:
                    st.dep_s += time.perf_counter() - ra
                    st.depth_samples.append((b - self._t0, float(len(my))))
                    if len(st.depth_samples) >= _DEPTH_FLUSH:
                        self._flush_depth(wid, st)
            done = False
            with run.lock:
                run.inflight -= 1
                run.remaining -= 1
                run.n_executed += 1
                if not run.finalized:
                    if run.remaining == 0:
                        run.finalized = True
                        done = True
                elif run._deferred and run.inflight == 0:
                    # Last in-flight task of a failed run: completion was
                    # deferred until no task could still write into the
                    # run's (about to be recycled) workspace buffers.
                    run._deferred = False
                    done = True
            with cv:
                state["version"] += 1
                if made_ready > 1:
                    cv.notify(made_ready - 1)
                elif made_ready == 0:
                    # Nothing new published; peers may still be waiting
                    # on tasks stolen from us — cheap notify.
                    cv.notify(1)
            if done:
                self._complete(run)

    # -- run completion --------------------------------------------------
    def _fail_run(self, run: EngineRun, failure: BaseException) -> None:
        """Record a task failure.  Completion is deferred while peers are
        still executing tasks of this run: the on_done hook may hand the
        run's workspace buffers to a concurrent same-shape solve, so it
        must not fire until no in-flight task can write into them."""
        complete_now = False
        with run.lock:
            first = not run.finalized
            run.finalized = True
            run.errors.append(failure)
            run.inflight -= 1
            run.remaining -= 1
            run.n_executed += 1
            if first:
                run._deferred = True
            if run._deferred and run.inflight == 0:
                run._deferred = False
                complete_now = True
        with self._cv:
            self._state["version"] += 1
            self._cv.notify_all()
        if complete_now:
            self._complete(run)

    def _complete(self, run: EngineRun) -> None:
        """Pool bookkeeping, then the engine's single emission point."""
        with self._cv:
            self.runs_completed += 1
            self._active.discard(run)
        run.finish(self.n_workers, self._worker_names)

    # -- telemetry -------------------------------------------------------
    def _flush_depth(self, wid: int, st: WorkerStats) -> None:
        """Export and clear one worker's queue-depth samples.

        Unlike the one-shot facade (which merges once after join), a
        persistent pool must flush periodically or the sample lists grow
        without bound over the session's lifetime.  Timestamps are
        pool-epoch relative (seconds since construction).
        """
        rec = self.recorder
        if rec is not None and getattr(rec, "enabled", False):
            st.flush_depth(rec, wid)

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
        for run in stranded:
            with run.lock:
                if run._done_event.is_set():
                    continue
                run.errors.append(SchedulerError(
                    "worker pool shut down before run completed"))
                run.finalized = True
                run._deferred = False
            self._complete(run)
        rec = self.recorder
        if (rec is not None and getattr(rec, "enabled", False)
                and self._wstats is not None):
            for w, st in enumerate(self._wstats):
                st.emit(rec, w)

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
    """One-shot facade over the work-stealing thread substrate.

    ``run(graph)`` spins up a private :class:`WorkerPool`, submits the
    graph, joins the workers and returns the trace — the shape of the
    paper's 1-16 thread scaling study, where every measurement starts
    and ends with a quiesced machine.  Scheduling semantics (per-worker
    priority queues, striped dependency counting, stealing on empty,
    condvar parking, first-failure cancellation) are exactly the pool's;
    this class only adds the join-and-raise protocol and the idle-time
    track on the returned trace.
    """

    def __init__(self, n_workers: Optional[int] = None, n_stripes: int = 64,
                 recorder=None, injector=None):
        if n_workers is None:
            n_workers = default_thread_workers()
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.n_stripes = max(1, n_stripes)
        self.recorder = recorder
        self.injector = injector
        self.trace: Optional[Trace] = None

    def run(self, graph: TaskGraph) -> Trace:
        graph.validate_acyclic()
        pool = WorkerPool(self.n_workers, self.n_stripes,
                          recorder=self.recorder, worker_names=None,
                          record_idle=True)
        try:
            run = pool.submit(graph, recorder=self.recorder,
                              injector=self.injector)
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
