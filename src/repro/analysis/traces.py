"""Trace/schedule analysis helpers used by the figure benchmarks.

Includes the MR³-SMP replay: :func:`mrrr_task_graph` turns the work
records of an MRRR solve into a task DAG (parent → child dependencies of
the representation tree; eigenvector tasks are leaves), which the
discrete-event machine then schedules like MR³-SMP's dynamic task pool —
giving the simulated MRRR makespans of the Fig. 8 benchmark.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..mrrr.solver import WorkRecord, mrrr_eigh
from ..runtime.dag import TaskGraph
from ..runtime.simulator import Machine, SimulatedMachine
from ..runtime.task import DataHandle, INPUT, OUTPUT

__all__ = ["mrrr_task_graph", "mrrr_makespan", "speedup_curve"]


def mrrr_task_graph(records: list[WorkRecord]) -> TaskGraph:
    """Build the dependency DAG of recorded MRRR work items."""
    g = TaskGraph()
    handles: dict[int, DataHandle] = {}
    for r in records:
        h = DataHandle(f"w{r.uid}")
        handles[r.uid] = h
        acc = [(h, OUTPUT)]
        if r.parent >= 0:
            acc.append((handles[r.parent], INPUT))
        g.insert_task(lambda: None, acc, name=r.name, cost=r.cost,
                      tag=r.uid)
    return g


def mrrr_makespan(d: np.ndarray, e: np.ndarray, *,
                  n_workers: int = 16,
                  machine: Optional[Machine] = None) -> float:
    """Simulated MR³-SMP runtime: solve (for the real task tree), then
    replay the tree on the virtual machine."""
    res = mrrr_eigh(d, e, full_result=True)
    g = mrrr_task_graph(res.records)
    sim = SimulatedMachine(machine or Machine(), n_workers=n_workers,
                           execute=False)
    return sim.run(g).makespan


def speedup_curve(makespans: dict[int, float]) -> dict[int, float]:
    """Speedups relative to the 1-worker entry."""
    base = makespans[min(makespans)]
    return {p: base / t for p, t in makespans.items()}
