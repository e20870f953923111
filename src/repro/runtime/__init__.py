"""Task-flow runtime (QUARK equivalent) used by the D&C eigensolver.

Public surface:

* :class:`~repro.runtime.task.DataHandle`, :class:`~repro.runtime.task.Task`,
  :class:`~repro.runtime.task.TaskCost` and the access qualifiers
  ``INPUT`` / ``OUTPUT`` / ``INOUT`` / ``GATHERV``;
* :class:`~repro.runtime.dag.TaskGraph` — dependency analysis, whose
  edges all point forward in submission order, so a graph is acyclic
  as built;
* :mod:`~repro.runtime.engine` — the shared execution core
  (:class:`~repro.runtime.engine.ReadyQueue`,
  :class:`~repro.runtime.engine.EngineRun`,
  :func:`~repro.runtime.engine.task_failed`): priority order, run
  isolation, first-failure cancellation and the run's trace, owned once
  for every substrate;
* :class:`~repro.runtime.scheduler.SequentialScheduler` /
  :class:`~repro.runtime.scheduler.ThreadScheduler` /
  :class:`~repro.runtime.scheduler.WorkerPool` — wall-clock
  substrates (the calling thread, or a pool of OS threads sharing one
  ready queue under one lock);
* :class:`~repro.runtime.simulator.Machine` /
  :class:`~repro.runtime.simulator.SimulatedMachine` — deterministic
  discrete-event execution on a virtual multicore (the one virtual-time
  substrate);
* :class:`~repro.runtime.quark.Quark` — QUARK-style facade;
* :class:`~repro.runtime.trace.Trace` — schedule recording/analysis;
* :class:`~repro.runtime.faults.FaultSpec` /
  :class:`~repro.runtime.faults.FaultInjector` — deterministic fault
  injection for exercising the failure paths.
"""

from .task import (Access, DataHandle, Task, TaskCost,
                   INPUT, OUTPUT, INOUT, GATHERV)
from .dag import TaskGraph
from .engine import EngineRun, ReadyQueue, task_failed
from .faults import FaultInjector, FaultSpec
from .scheduler import (SequentialScheduler, ThreadScheduler, WorkerPool,
                        default_thread_workers)
from .simulator import Machine, SimulatedMachine
from .quark import Quark
from .trace import Trace, TraceEvent, PAPER_KERNELS

__all__ = [
    "Access", "DataHandle", "Task", "TaskCost",
    "INPUT", "OUTPUT", "INOUT", "GATHERV",
    "TaskGraph",
    "EngineRun", "ReadyQueue", "task_failed",
    "SequentialScheduler", "ThreadScheduler",
    "WorkerPool", "default_thread_workers",
    "Machine", "SimulatedMachine", "Quark",
    "FaultSpec", "FaultInjector",
    "Trace", "TraceEvent", "PAPER_KERNELS",
]
