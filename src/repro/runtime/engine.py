"""The shared execution core behind every backend runtime.

The paper's central artifact is a *single* task-flow runtime (QUARK)
that executes one DAG under one readiness rule on any hardware.  This
module is that runtime's engine: everything the execution backends have
in common lives here, once —

* :class:`ReadyQueue` — the priority-ordered ready structure (higher
  ``Task.priority`` first, then overall submission order: QUARK's
  sequential-task-flow policy); unlocked, so the thread pool guards its
  one shared instance with its own lock;
* :class:`EngineRun` — the run-isolation record: per-run dependency
  countdowns and readiness release, first-failure state, trace events,
  and the single emission point for the run's :class:`Trace` (built for
  failed runs too) and the completion hook;
* :func:`task_failed` — the typed-``TaskFailure`` failure path every
  substrate raises through;
* :class:`VirtualExecutor` — the discrete-event engine loop shared by
  the simulator family (:class:`~repro.runtime.simulator.SimulatedMachine`,
  :class:`~repro.runtime.distributed.ClusterMachine`,
  :class:`~repro.runtime.hetero.HeteroMachine`): readiness, payload
  execution with fault injection and deadlock detection, with the
  machine model (worker geometry, dispatch placement, virtual-clock
  advance) left to subclasses.

The run's :class:`Trace` is its only record: no substrate counts or
samples anything beside it, and every telemetry view
(:func:`repro.obs.solve_metrics`) is derived from it afterwards.  A
substrate consults a run's fault injector (``injector.maybe_fail(task)``)
immediately before running each task.

The backends themselves (:mod:`~repro.runtime.scheduler`,
:mod:`~repro.runtime.simulator`, :mod:`~repro.runtime.distributed`,
:mod:`~repro.runtime.hetero`) are thin *substrates*: inline call, a
thread pool over one locked ready queue, or a virtual clock.  No module
outside this one may import an underscore-private name from another
runtime module — the conformance suite's lint test enforces it.
"""

from __future__ import annotations

import heapq
import threading
import time
from operator import attrgetter
from typing import Callable, Optional

from ..errors import SchedulerError, wrap_task_error
from .trace import Trace, TraceEvent

__all__ = ["ReadyQueue", "EngineRun", "task_failed", "VirtualExecutor"]


class ReadyQueue:
    """The one priority-ordered ready structure (QUARK's policy).

    Entries are keyed ``(-priority, order_base + seq)`` — higher
    priority first, then overall submission order — with the payload
    ``(task, run)`` kept out of the comparison, so tasks from different
    fused runs interleave by priority without ever comparing ``Task``
    objects.  Single-graph users pass no ``run``/``base`` and the key
    degenerates to ``(-priority, seq)``.  Not thread-safe: a
    multi-threaded substrate calls it under its own lock.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple[tuple[int, int], tuple]] = []

    def push(self, task, run=None, base: int = 0) -> None:
        heapq.heappush(self._heap,
                       ((-task.priority, base + task.seq), (task, run)))

    def pop(self) -> Optional[tuple]:
        """Best ``(task, run)`` pair, or ``None`` when empty."""
        if self._heap:
            return heapq.heappop(self._heap)[1]
        return None

    def __len__(self) -> int:
        return len(self._heap)


def task_failed(task, exc: BaseException, worker: Optional[int] = None,
                trace: Optional[Trace] = None) -> BaseException:
    """The typed wrapper of a task failure.

    The wrapper carries the task context (name, seq, tag, worker) and
    chains ``exc`` as its ``__cause__``; callers raise it.  The inline
    substrates pass the run's partial ``trace``, attached as
    ``failure.trace``; the thread pool attaches its own in
    :meth:`EngineRun.finish`.
    """
    failure = wrap_task_error(task, exc, worker=worker)
    if failure is not exc:
        failure.__cause__ = exc
    if trace is not None:
        failure.trace = trace
    return failure


class EngineRun:
    """Run-isolation record: one DAG submitted to an execution substrate.

    Owns the run's dependency countdowns, trace events, failure record
    and completion signal.  Isolation boundary of a fused super-DAG: a
    task failure marks *this* run failed (its queued tasks drain as
    no-ops) while every other run proceeds untouched.

    ``inflight`` counts tasks of this run currently executing on some
    worker.  Completion — and the ``on_done`` hook, which may recycle
    the run's workspace buffers — only happens once the run is
    finalized AND no task is still executing: a failed run must not
    release buffers while a peer worker is writing into them.  The
    thread pool reads and writes the lifecycle fields (``pending``,
    ``remaining``, ``inflight``, ``finalized``, ``errors``) only under
    its lock.
    """

    __slots__ = ("graph", "n_tasks", "pending", "remaining", "t0",
                 "events", "errors", "finalized", "trace", "injector",
                 "order_base", "on_done", "_done_event", "inflight")

    def __init__(self, graph, order_base: int = 0, *, injector=None,
                 on_done: Optional[Callable[["EngineRun"], None]] = None):
        self.graph = graph
        self.n_tasks = len(graph.tasks)
        self.pending = [t.n_deps for t in graph.tasks]
        self.remaining = self.n_tasks
        self.t0 = time.perf_counter()
        self.events: list[TraceEvent] = []   # list.append is GIL-atomic
        self.errors: list[BaseException] = []
        self.finalized = False
        self.trace: Optional[Trace] = None
        self.injector = injector
        self.order_base = order_base
        self.on_done = on_done
        self.inflight = 0              # tasks executing on a worker now
        self._done_event = threading.Event()

    @property
    def failed(self) -> bool:
        return bool(self.errors)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the run completes (or fails); True when done."""
        return self._done_event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> Trace:
        """The run's trace; re-raises the first task failure, typed."""
        if not self._done_event.wait(timeout):
            raise SchedulerError("timed out waiting for pool run")
        if self.errors:
            raise self.errors[0]
        return self.trace

    # -- readiness release -----------------------------------------------
    def release(self, task, ready: ReadyQueue) -> int:
        """Count down ``task``'s successors, push the ones that became
        ready into ``ready`` and return how many did.

        The per-run countdown is indexed by submission order ``seq``
        (the graph's own ``n_deps`` is never mutated, so one graph can
        be re-analyzed or re-instantiated).
        """
        pending = self.pending
        base = self.order_base
        n = 0
        for s in task.successors:
            i = s.seq
            pending[i] -= 1
            if pending[i] == 0:
                ready.push(s, self, base)
                n += 1
        return n

    # -- the single emission point ---------------------------------------
    def finish(self, n_workers: int,
               worker_names: Optional[list[str]] = None) -> None:
        """Emit the run's outcome and signal completion.  Called exactly
        once per run, only when no task of the run is executing or can
        still start.

        Build the :class:`Trace` (events sorted into timeline order) —
        on failure too, where it holds the tasks that completed and is
        attached to the first error as ``.trace``.  Then run the
        completion hook (exceptions swallowed — a hook must never kill a
        worker) and set the done event.
        """
        trace = Trace(n_workers=n_workers, worker_names=worker_names)
        # One run's perf_counter start stamps do not tie in practice.
        self.events.sort(key=attrgetter("t_start"))
        trace.events = self.events
        self.trace = trace
        if self.failed:
            self.errors[0].trace = trace
        if self.on_done is not None:
            try:
                self.on_done(self)
            except Exception:
                pass
        self._done_event.set()


# ---------------------------------------------------------------------------
# Discrete-event substrate base
# ---------------------------------------------------------------------------


class VirtualExecutor:
    """Engine loop shared by the virtual-clock (discrete-event) family.

    Owns the full engine contract for the simulator backends: dependency
    countdowns and readiness release, the priority-ordered ready queue,
    functional-payload execution with the fault-injection guard,
    first-failure cancellation, the trace (with *virtual* timestamps)
    and deadlock detection.  Subclasses provide only the machine model
    via four hooks:

    ``_virtual_workers()``
        Total worker rows in the trace.
    ``_setup(graph)``
        Initialize run-scoped substrate state (free-worker lists,
        data-location maps, the running set).
    ``_dispatch(ready)``
        Start ready tasks per the substrate's placement policy, calling
        :meth:`_exec_payload` for each started task.  The policy — e.g.
        the fluid model's pop-only-when-a-core-is-free versus the
        cluster/hetero drain-then-defer pattern — is deliberately left
        to the substrate so each model's published virtual-time results
        stay bit-identical.
    ``_advance()``
        Advance the virtual clock to the next completion(s), calling
        :meth:`_complete_task` for each finished task.

    Instances are single-run at a time (like the wall-clock schedulers);
    ``run`` keeps its state on ``self`` for the substrate hooks.
    """

    def __init__(self, *, execute: bool = True, injector=None):
        self.execute = execute
        self.injector = injector
        self.trace: Optional[Trace] = None

    # -- substrate hooks -------------------------------------------------
    def _virtual_workers(self) -> int:
        raise NotImplementedError

    def _setup(self, graph) -> None:
        raise NotImplementedError

    def _dispatch(self, ready: ReadyQueue) -> None:
        raise NotImplementedError

    def _has_running(self) -> bool:
        raise NotImplementedError

    def _advance(self) -> None:
        raise NotImplementedError

    # -- engine loop -----------------------------------------------------
    def run(self, graph) -> Trace:
        tasks = graph.tasks
        self._trace = trace = Trace(n_workers=self._virtual_workers())
        self._pending = {t.uid: t.n_deps for t in tasks}
        self._ready = ready = ReadyQueue()
        for t in tasks:
            if t.n_deps == 0:
                ready.push(t)
        self._now = 0.0
        self._n_done = 0
        total = len(tasks)
        self._setup(graph)
        while self._n_done < total:
            self._dispatch(ready)
            if not self._has_running():
                raise SchedulerError(
                    f"{type(self).__name__}: deadlock — no running tasks "
                    "but the graph is incomplete")
            self._advance()
        self.trace = trace
        return trace

    # -- engine services for the substrate hooks -------------------------
    def _exec_payload(self, task) -> None:
        """Run the functional payload at (virtual) dispatch time.

        The first failure cancels the run: the typed
        :class:`~repro.errors.TaskFailure` propagates, carrying the
        partial trace of the tasks completed so far.  When
        ``execute=False`` (replaying a solved graph) the payload is
        skipped but the task is still marked done.
        """
        if self.execute:
            injector = self.injector
            try:
                if injector is not None:
                    injector.maybe_fail(task)
                task.run()
            except Exception as exc:
                raise task_failed(task, exc, trace=self._trace) from exc
        task.mark_done()

    def _complete_task(self, task, worker: int, t_start: float,
                       t_end: float) -> None:
        """Trace one virtually-finished task and release its successors
        into the ready queue."""
        self._trace.record(TraceEvent(task.uid, task.name, worker,
                                      t_start, t_end, task.tag,
                                      task.priority, task.seq))
        pending = self._pending
        ready = self._ready
        for s in task.successors:
            pending[s.uid] -= 1
            if pending[s.uid] == 0:
                ready.push(s)
        self._n_done += 1
