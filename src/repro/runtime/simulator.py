"""Deterministic discrete-event simulation of a multicore machine.

The paper evaluates on a dual-socket 16-core Xeon E5-2650v2.  Python's GIL
makes fine-grained *pure-Python* tasks serialize, so wall-clock thread runs
cannot reproduce the paper's scalability curves faithfully.  Instead, this
substrate executes the *identical task DAG* (same tasks, same dependencies,
same out-of-order readiness rule and the engine's
:class:`~repro.runtime.engine.ReadyQueue` order) on ``P`` virtual cores
and charges each task a duration derived from its declared
:class:`~repro.runtime.task.TaskCost`:

* compute-bound tasks (``flops`` dominated) progress at the core's flop
  rate — they scale perfectly with cores, like the paper's GEMM/secular
  kernels;
* memory-bound tasks (``bytes_moved`` dominated: ``PermuteV``,
  ``CopyBackDeflated``) share their socket's bandwidth with every other
  memory-bound task running on the same socket, with a per-core ceiling.
  This processor-sharing fluid model reproduces the bandwidth saturation
  the paper reports (Fig. 4/5: ~4 threads saturate one socket).

The functional payload of every task still runs (in virtual-time order),
so deflation-dependent task costs — evaluated lazily — reflect the real
matrix, exactly as in the paper where the DAG is matrix-independent but
task *work* is not.  Payloads run under the run's fault injector and
fail through :func:`~repro.runtime.engine.task_failed`, so fault
injection and the per-run trace work here exactly as on the wall-clock
substrates (trace timestamps are virtual seconds).  This is the only
virtual-time substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import InputError, SchedulerError
from .engine import ReadyQueue, task_failed
from .task import Task, TaskCost
from .trace import Trace, TraceEvent


@dataclass(frozen=True)
class Machine:
    """Virtual machine model (defaults approximate the paper's testbed).

    ``core_gflops``
        Double-precision rate of one core for BLAS-3-like kernels.
    ``kernel_efficiency``
        Multiplier applied to ``core_gflops`` for non-GEMM kernels
        (divides/iterative secular work run far below peak).
    ``socket_bw``
        Memory bandwidth of one socket, bytes/s.
    ``stream_bw``
        Bandwidth a single core can draw, bytes/s (socket saturates at
        ``socket_bw / stream_bw`` cores; ~4 on the paper's machine).
    ``task_overhead``
        Fixed per-task runtime/scheduling overhead, seconds.
    """

    n_cores: int = 16
    n_sockets: int = 2
    core_gflops: float = 18.0
    kernel_efficiency: float = 0.25
    socket_bw: float = 40e9
    stream_bw: float = 10e9
    task_overhead: float = 2e-6

    def __post_init__(self) -> None:
        if self.n_cores % self.n_sockets:
            raise ValueError("n_cores must be a multiple of n_sockets")

    @property
    def cores_per_socket(self) -> int:
        return self.n_cores // self.n_sockets

    def socket_of(self, worker: int) -> int:
        return worker // self.cores_per_socket

    # -- cost -> work decomposition ------------------------------------------
    def work_of(self, cost: TaskCost, name: str = "") -> tuple[str, float, float]:
        """Classify a task and return ``(kind, work, overhead_seconds)``.

        ``kind`` is ``"flops"`` or ``"bytes"``; ``work`` is the service
        requirement in that unit.  Efficiency: GEMM-like kernels
        (``UpdateVect``) run at full ``core_gflops``; everything else at
        ``kernel_efficiency * core_gflops``.
        """
        rate = self.flop_rate(name)
        t_flop = cost.flops / rate if cost.flops else 0.0
        t_mem = cost.bytes_moved / self.stream_bw if cost.bytes_moved else 0.0
        over = self.task_overhead + cost.serial_overhead
        if t_mem > t_flop:
            return "bytes", cost.bytes_moved, over
        return "flops", cost.flops, over

    def flop_rate(self, name: str = "") -> float:
        full = {"UpdateVect", "GEMM", "STEDC"}
        eff = 1.0 if name in full else self.kernel_efficiency
        return self.core_gflops * 1e9 * eff

    def duration_solo(self, cost: TaskCost, name: str = "") -> float:
        """Duration of the task running alone on one core (no contention)."""
        kind, work, over = self.work_of(cost, name)
        if kind == "bytes":
            return over + work / self.stream_bw
        return over + work / self.flop_rate(name)


class _Running:
    __slots__ = ("task", "worker", "socket", "kind", "remaining",
                 "overhead_left", "t_start")

    def __init__(self, task: Task, worker: int, socket: int, kind: str,
                 work: float, overhead: float, t_start: float):
        self.task = task
        self.worker = worker
        self.socket = socket
        self.kind = kind
        self.remaining = work
        self.overhead_left = overhead
        self.t_start = t_start


class SimulatedMachine:
    """Discrete-event substrate: a :class:`TaskGraph` on a :class:`Machine`.

    Readiness is the engine's rule: a task becomes ready when its last
    predecessor finishes, and ready tasks start in
    :class:`~repro.runtime.engine.ReadyQueue` order.  Fluid
    processor-sharing semantics: on every task start/finish the
    instantaneous rates of all running tasks are recomputed; memory-bound
    tasks on socket *s* each progress at
    ``min(stream_bw, socket_bw / n_mem(s))`` bytes/s.

    ``n_workers`` (default ``machine.n_cores``) must lie in
    ``[1, machine.n_cores]``: fewer workers keep the machine's socket
    geometry and just use fewer of its cores (like a taskset-restricted
    run).  ``execute=False`` replays a solved graph: no payload runs and
    every task's cost is read as the first run left it.  ``injector`` is
    consulted immediately before each payload, as on every substrate.

    Instances run one graph at a time; ``run`` keeps its state on
    ``self``.
    """

    def __init__(self, machine: Machine | None = None,
                 n_workers: Optional[int] = None,
                 execute: bool = True, injector=None):
        self.machine = machine = machine or Machine()
        if n_workers is None:
            n_workers = machine.n_cores
        elif not 1 <= n_workers <= machine.n_cores:
            raise InputError(
                f"n_workers={n_workers} is outside [1, {machine.n_cores}]: "
                f"the simulated machine has {machine.n_cores} cores")
        self.n_workers = n_workers
        self.execute = execute
        self.injector = injector
        self.trace: Optional[Trace] = None

    def run(self, graph) -> Trace:
        tasks = graph.tasks
        self._trace = trace = Trace(n_workers=self.n_workers)
        self._pending = {t.uid: t.n_deps for t in tasks}
        self._ready = ready = ReadyQueue()
        for t in tasks:
            if t.n_deps == 0:
                ready.push(t)
        self._now = 0.0
        self._n_done = 0
        self._free = list(range(self.n_workers - 1, -1, -1))
        self._running: list[_Running] = []
        total = len(tasks)
        while self._n_done < total:
            self._dispatch()
            if not self._running:
                raise SchedulerError(
                    "SimulatedMachine: deadlock — no running tasks but "
                    "the graph is incomplete")
            self._advance()
        self.trace = trace
        return trace

    def _dispatch(self) -> None:
        # Start as many ready tasks as there are free workers.  Pick
        # the free worker on the least-loaded socket (OS schedulers and
        # work stealing spread threads across sockets, which matters
        # for the bandwidth model).
        m = self.machine
        ready = self._ready
        free = self._free
        running = self._running
        while len(ready) and free:
            task, _ = ready.pop()
            busy: dict[int, int] = {}
            for r in running:
                busy[r.socket] = busy.get(r.socket, 0) + 1
            free.sort(key=lambda w: (busy.get(m.socket_of(w), 0), w),
                      reverse=True)
            worker = free.pop()
            self._exec_payload(task)  # functional effect; timing continues
            cost = task.resolved_cost()
            kind, work, over = m.work_of(cost, task.name)
            running.append(_Running(task, worker, m.socket_of(worker),
                                    kind, work, over, self._now))

    def _exec_payload(self, task) -> None:
        """Run the functional payload at (virtual) dispatch time.

        The first failure cancels the run: the typed
        :class:`~repro.errors.TaskFailure` propagates, carrying the
        partial trace of the tasks completed so far.  When
        ``execute=False`` the payload is skipped but the task is still
        marked done.
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

    def _rates(self) -> dict[int, float]:
        """Instantaneous progress rate for each running task (by uid)."""
        m = self.machine
        mem_per_socket: dict[int, int] = {}
        for r in self._running:
            if r.kind == "bytes":
                mem_per_socket[r.socket] = mem_per_socket.get(r.socket, 0) + 1
        out: dict[int, float] = {}
        for r in self._running:
            if r.kind == "bytes":
                share = m.socket_bw / mem_per_socket[r.socket]
                out[r.task.uid] = min(m.stream_bw, share)
            else:
                out[r.task.uid] = m.flop_rate(r.task.name)
        return out

    def _advance(self) -> None:
        # Advance to the next completion under current rates.
        running = self._running
        rt = self._rates()
        dt = min((r.overhead_left +
                  (r.remaining / rt[r.task.uid] if r.remaining else 0.0))
                 for r in running)
        self._now += dt
        still: list[_Running] = []
        finished: list[_Running] = []
        for r in running:
            d = dt
            if r.overhead_left > 0.0:
                used = min(r.overhead_left, d)
                r.overhead_left -= used
                d -= used
            if d > 0.0 and r.remaining > 0.0:
                r.remaining -= rt[r.task.uid] * d
            # Work units are flops/bytes, so 1e-3 of either is nothing.
            if r.overhead_left <= 1e-18 and r.remaining <= 1e-3:
                finished.append(r)
            else:
                still.append(r)
        if not finished:
            # Guard against FP stagnation: force the closest task out.
            r = min(running, key=lambda r: r.remaining + r.overhead_left)
            r.remaining = 0.0
            r.overhead_left = 0.0
            finished = [r]
            still = [x for x in running if x is not r]
        self._running = still
        for r in finished:
            self._complete(r)
            self._free.append(r.worker)
        self._free.sort(reverse=True)

    def _complete(self, r: _Running) -> None:
        """Trace one finished task and release its successors into the
        ready queue."""
        task = r.task
        self._trace.record(TraceEvent(task.uid, task.name, r.worker,
                                      r.t_start, self._now, task.tag,
                                      task.priority, task.seq))
        pending = self._pending
        for s in task.successors:
            pending[s.uid] -= 1
            if pending[s.uid] == 0:
                self._ready.push(s)
        self._n_done += 1
