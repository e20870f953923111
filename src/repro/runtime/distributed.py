"""Distributed-memory task-flow prototype (paper future work, DPLASMA).

"For future work, we plan to study the implementation for both
heterogeneous and distributed architectures, in the MAGMA and DPLASMA
libraries."  This module runs the unchanged task DAG across several
simulated nodes: every task executes on one node's cores, data handles
live on the node that last wrote them, and reading a remote handle
charges an α–β network transfer — the PaRSEC/DPLASMA execution model in
miniature.

Placement follows data affinity by default (run where most input bytes
live, break ties toward the least-loaded node), or a user-supplied
``placement(task) -> node`` — e.g. the owner-computes tree partition
used by the distributed-D&C study in the EXT-4 benchmark.

The engine loop — readiness, payload execution with fault injection,
the trace, deadlock detection — comes from
:class:`~repro.runtime.engine.VirtualExecutor`; this module owns only
the placement policy and the network charge model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .engine import ReadyQueue, VirtualExecutor
from .simulator import Machine
from .task import Access, Task

__all__ = ["Network", "ClusterMachine", "tree_placement"]


@dataclass(frozen=True)
class Network:
    """α–β interconnect model between nodes."""

    alpha: float = 2e-5             # per-message latency (s)
    beta: float = 1.0 / 6e9         # per-byte time (s/byte)


def tree_placement(n: int, n_nodes: int) -> Callable[[Task], int]:
    """Owner-computes placement for the D&C DAG: a task tagged with a
    column range ``(lo, hi)`` runs on the node owning column lo."""
    def place(task: Task) -> Optional[int]:
        tag = task.tag
        if isinstance(tag, tuple) and len(tag) == 2 \
                and isinstance(tag[0], int):
            return min(n_nodes - 1, tag[0] * n_nodes // n)
        return None
    return place


class ClusterMachine(VirtualExecutor):
    """Discrete-event substrate: one task DAG over several nodes.

    Parameters
    ----------
    n_nodes : number of identical nodes.
    machine : per-node CPU model (cores, rates).
    network : interconnect α–β model.
    placement : optional ``task -> node`` (None = data affinity).
    execute : run the functional payloads (False replays a solved graph).
    injector : the engine's fault-injection hook (same semantics as
        every other substrate).
    """

    def __init__(self, n_nodes: int = 2,
                 machine: Optional[Machine] = None,
                 network: Optional[Network] = None,
                 placement: Optional[Callable[[Task], Optional[int]]] = None,
                 execute: bool = True, *, injector=None):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.n_nodes = n_nodes
        self.machine = machine or Machine()
        self.network = network or Network()
        self.placement = placement
        super().__init__(execute=execute, injector=injector)
        self.bytes_on_wire = 0.0
        self.n_messages = 0

    # -- substrate hooks -------------------------------------------------
    def _virtual_workers(self) -> int:
        return self.n_nodes * self.machine.n_cores

    def _setup(self, graph) -> None:
        cpn = self.machine.n_cores                # cores per node
        self._free = [list(range(node * cpn + cpn - 1, node * cpn - 1, -1))
                      for node in range(self.n_nodes)]
        self._load = [0.0] * self.n_nodes
        #: handle uid -> (owner node, resident bytes estimate)
        self._location: dict[int, tuple[int, float]] = {}
        #: (end_time, start_time, task, worker, node)
        self._running: list[tuple[float, float, Task, int, int]] = []
        self._deferred: list[Task] = []
        self.bytes_on_wire = 0.0
        self.n_messages = 0

    def _has_running(self) -> bool:
        return bool(self._running)

    def _choose_node(self, task: Task) -> int:
        if self.placement is not None:
            forced = self.placement(task)
            if forced is not None:
                return forced
        # Data affinity: node holding the most input bytes.
        weights = [0.0] * self.n_nodes
        for handle, _mode in task.accesses:
            loc = self._location.get(handle.uid)
            if loc is not None:
                weights[loc[0]] += loc[1]
        load = self._load
        return max(range(self.n_nodes),
                   key=lambda nd: (weights[nd], -load[nd]))

    def _dispatch(self, ready: ReadyQueue) -> None:
        m = self.machine
        free = self._free
        candidates: list[Task] = self._deferred
        self._deferred = []
        while len(ready):
            candidates.append(ready.pop()[0])
        for task in candidates:
            node = self._choose_node(task)
            if not free[node]:
                # Preferred node busy: steal to any free node (the
                # dynamic-scheduling half of the DPLASMA model).
                alts = [nd for nd in range(self.n_nodes) if free[nd]]
                if not alts:
                    self._deferred.append(task)
                    continue
                node = max(alts, key=lambda nd: -self._load[nd])
            worker = free[node].pop()
            self._exec_payload(task)
            cost = task.resolved_cost()
            comm = 0.0
            for handle, mode in task.accesses:
                loc = self._location.get(handle.uid)
                if loc is not None and loc[0] != node:
                    comm += self.network.alpha \
                        + loc[1] * self.network.beta
                    self.bytes_on_wire += loc[1]
                    self.n_messages += 1
                if mode is not Access.INPUT:
                    self._location[handle.uid] = (
                        node, max(cost.bytes_moved,
                                  cost.flops * 8e-3, 4096.0))
            dur = comm + m.duration_solo(cost, task.name)
            self._load[node] += dur
            self._running.append((self._now + dur, self._now, task,
                                  worker, node))

    def _advance(self) -> None:
        self._running.sort(key=lambda r: r[0])
        end, start, task, worker, node = self._running.pop(0)
        self._now = end
        self._free[node].append(worker)
        self._complete_task(task, worker, start, end)
