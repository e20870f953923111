"""Heterogeneous (CPU + accelerator) discrete-event machine.

The paper's conclusion: "For future work, we plan to study the
implementation for both heterogeneous and distributed architectures, in
the MAGMA and DPLASMA libraries", and its related work [16] reports a
GPU D&C where "both the secular equation and the GEMMs are computed on
GPUs".  This module prototypes that study on the simulator: a
:class:`HeteroMachine` adds accelerator devices to the CPU socket model,
tasks carry a device-placement policy (by kernel name), and data
movement between host and device is charged per handle crossing.

The DAG, the numerics and the readiness rules are identical to the
homogeneous case — placement and transfers are purely a scheduling
concern, as they would be in a StarPU/PaRSEC-style runtime.  The engine
loop (readiness, payload execution with fault injection, the trace,
deadlock detection) comes from
:class:`~repro.runtime.engine.VirtualExecutor`; this module owns only
the device placement and the PCIe charge model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import ReadyQueue, VirtualExecutor
from .simulator import Machine
from .task import Access, Task

__all__ = ["Accelerator", "HeteroMachine", "GPU_OFFLOAD_POLICY"]


@dataclass(frozen=True)
class Accelerator:
    """One accelerator device (GPU-like).

    ``gflops`` applies to offloadable compute kernels; ``n_streams`` is
    the number of concurrent task streams; ``pcie_bw`` is the
    host↔device transfer bandwidth (bytes/s), ``pcie_latency`` the
    per-transfer latency.
    """

    gflops: float = 900.0
    n_streams: int = 4
    pcie_bw: float = 12e9
    pcie_latency: float = 8e-6


#: The offload split of the paper's related work [16]: secular equation
#: and GEMMs on the GPU, everything else on the host.
GPU_OFFLOAD_POLICY = frozenset({"UpdateVect", "LAED4", "ComputeVect",
                                "ComputeLocalW"})


class HeteroMachine(VirtualExecutor):
    """Discrete-event substrate: CPU cores plus accelerators.

    Placement: tasks whose kernel name is in ``offload`` run on an
    accelerator stream when one is free (host otherwise); all other
    tasks run on CPU cores.  Every handle tracks its last location;
    reading a handle written on the other side charges a PCIe transfer
    of the producing task's ``bytes_moved`` (approximating the touched
    data), and writing migrates the handle.
    """

    def __init__(self, machine: Optional[Machine] = None,
                 accelerators: int = 1,
                 accel: Optional[Accelerator] = None,
                 offload: frozenset[str] = GPU_OFFLOAD_POLICY,
                 execute: bool = True, *, injector=None):
        self.machine = machine or Machine()
        self.accel = accel or Accelerator()
        self.n_accel_streams = accelerators * self.accel.n_streams
        self.offload = offload
        super().__init__(execute=execute, injector=injector)

    # -- duration model ---------------------------------------------------
    def _duration(self, task: Task, on_gpu: bool,
                  transfer_bytes: float) -> float:
        cost = task.resolved_cost()
        m = self.machine
        t = m.task_overhead + cost.serial_overhead
        if transfer_bytes > 0.0:
            t += self.accel.pcie_latency + transfer_bytes / self.accel.pcie_bw
        if on_gpu:
            t += cost.flops / (self.accel.gflops * 1e9)
            # Device memory traffic is folded into the flop rate.
            return t
        kind, work, _ = m.work_of(cost, task.name)
        if kind == "bytes":
            # (no fluid sharing here: the hetero model keeps memory-bound
            # tasks at the single-stream rate, a mild simplification)
            return t + work / m.stream_bw
        return t + work / m.flop_rate(task.name)

    # -- substrate hooks ---------------------------------------------------
    def _virtual_workers(self) -> int:
        return self.machine.n_cores + self.n_accel_streams

    def _setup(self, graph) -> None:
        n_cpu = self.machine.n_cores
        n_workers = n_cpu + self.n_accel_streams
        self._free_cpu = list(range(n_cpu - 1, -1, -1))
        self._free_gpu = list(range(n_workers - 1, n_cpu - 1, -1))
        #: handle uid -> ("cpu"|"gpu", resident bytes estimate)
        self._location: dict[int, tuple[str, float]] = {}
        #: (end_time, start_time, task, worker)
        self._running: list[tuple[float, float, Task, int]] = []
        self._deferred: list[Task] = []

    def _has_running(self) -> bool:
        return bool(self._running)

    def _dispatch(self, ready: ReadyQueue) -> None:
        # Assign every startable task; GPU-preferring tasks take an
        # accelerator stream when one is free, otherwise a CPU core.
        candidates: list[Task] = self._deferred
        self._deferred = []
        while len(ready):
            candidates.append(ready.pop()[0])
        for task in candidates:
            wants_gpu = task.name in self.offload
            if wants_gpu and self._free_gpu:
                worker, on_gpu = self._free_gpu.pop(), True
            elif self._free_cpu:
                worker, on_gpu = self._free_cpu.pop(), False
            else:
                self._deferred.append(task)
                continue
            self._exec_payload(task)
            side = "gpu" if on_gpu else "cpu"
            transfer = 0.0
            cost = task.resolved_cost()
            for handle, mode in task.accesses:
                loc = self._location.get(handle.uid)
                if loc is not None and loc[0] != side:
                    transfer += loc[1]
                if mode is not Access.INPUT:
                    self._location[handle.uid] = (
                        side, max(cost.bytes_moved,
                                  cost.flops * 8e-3, 4096.0))
            dur = self._duration(task, on_gpu, transfer)
            self._running.append((self._now + dur, self._now, task, worker))

    def _advance(self) -> None:
        self._running.sort(key=lambda r: r[0])
        end, start, task, worker = self._running.pop(0)
        self._now = end
        if worker < self.machine.n_cores:
            self._free_cpu.append(worker)
        else:
            self._free_gpu.append(worker)
        self._complete_task(task, worker, start, end)
