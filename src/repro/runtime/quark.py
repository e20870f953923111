"""A QUARK-flavoured facade over the task-flow runtime.

``Quark`` bundles a :class:`~repro.runtime.dag.TaskGraph` with an execution
backend so algorithm code reads like the original PLASMA sources: a master
submits tasks with data-access qualifiers and finally calls ``barrier()``
(QUARK's ``QUARK_Barrier``) to execute everything submitted so far.

Backends
--------
``"sequential"``
    Submission-order execution on the calling thread.
``"threads"``
    Real out-of-order execution on ``n_workers`` OS threads.
``"simulated"``
    Deterministic discrete-event execution on a virtual
    :class:`~repro.runtime.simulator.Machine` (default: the paper's
    16-core dual-socket Xeon).

:data:`QUARK_BACKENDS` is the one list of backend names: the
eigensolver (``dc_eigh``, ``SolverSession``, ``eigh``) and the CLI
accept exactly these, checked by :func:`validate_backend` before any
work starts.

Every backend is a substrate of the shared engine
(:mod:`repro.runtime.engine`), so fault injection, the per-run trace,
priorities and first-failure cancellation behave identically on all of
them.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ..errors import InputError
from .dag import TaskGraph
from .faults import FaultInjector, FaultSpec
from .scheduler import (SequentialScheduler, ThreadScheduler,
                        default_thread_workers)
from .simulator import Machine, SimulatedMachine
from .task import Access, DataHandle, Task
from .trace import Trace

#: Backends a task flow can execute on.
QUARK_BACKENDS = ("sequential", "threads", "simulated")


def validate_backend(backend: str) -> None:
    """Raise :class:`~repro.errors.InputError` unless ``backend`` is one
    of :data:`QUARK_BACKENDS`."""
    if backend not in QUARK_BACKENDS:
        raise InputError(f"unknown backend {backend!r}; expected one of "
                         f"{QUARK_BACKENDS}")


class Quark:
    """Sequential-task-flow entry point, mirroring the QUARK C API."""

    def __init__(self, backend: str = "sequential", *,
                 n_workers: Optional[int] = None,
                 machine: Optional[Machine] = None,
                 fault_injection: Optional[FaultSpec] = None):
        validate_backend(backend)
        self.backend = backend
        self.injector = (FaultInjector(fault_injection)
                         if fault_injection is not None else None)
        self.machine = machine if machine is not None else (
            Machine() if backend == "simulated" else None)
        if n_workers is None:
            # threads: one worker per core (clamped), like the paper's
            # 1-16 thread study — not a hardcoded constant.
            n_workers = self.machine.n_cores if self.machine else (
                default_thread_workers() if backend == "threads" else 1)
        self.n_workers = n_workers
        self.graph = TaskGraph()
        self.traces: list[Trace] = []

    # -- submission ------------------------------------------------------------
    def insert_task(self, func: Callable[..., Any],
                    accesses: Sequence[tuple[DataHandle, Access]] = (),
                    **kwargs: Any) -> Task:
        return self.graph.insert_task(func, accesses, **kwargs)

    def new_handle(self, name: str = "", payload: Any = None) -> DataHandle:
        return DataHandle(name, payload)

    # -- execution ---------------------------------------------------------------
    def _make_scheduler(self):
        if self.backend == "sequential":
            return SequentialScheduler(injector=self.injector)
        if self.backend == "threads":
            return ThreadScheduler(self.n_workers, injector=self.injector)
        return SimulatedMachine(self.machine, n_workers=self.n_workers,
                                injector=self.injector)

    def barrier(self) -> Trace:
        """Execute every task submitted since the previous barrier."""
        scheduler = self._make_scheduler()
        trace = scheduler.run(self.graph)
        self.traces.append(trace)
        self.graph = TaskGraph()
        return trace

    @property
    def last_trace(self) -> Optional[Trace]:
        return self.traces[-1] if self.traces else None
