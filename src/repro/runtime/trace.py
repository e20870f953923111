"""Execution traces: the data behind the paper's Figs. 3 and 4.

Every execution substrate records one :class:`TraceEvent` per completed
task, once, into the run's :class:`Trace` — the run's event log.  A
failed run keeps its partial trace (attached to the raised error as
``.trace``).  :class:`Trace` computes makespan, per-kernel time
breakdowns and idle fractions, and renders an ASCII Gantt chart
comparable to the paper's execution traces; session metrics, post-mortem
bundles and collapsed stacks are all derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

#: Kernel names of the paper's Table II (color code of the DAG and traces),
#: in the paper's order.
PAPER_KERNELS = (
    "UpdateVect", "ComputeVect", "LAED4", "ComputeLocalW",
    "SortEigenvectors", "STEDC", "LASET", "Compute_deflation",
    "PermuteV", "CopyBackDeflated",
)


@dataclass(frozen=True)
class TraceEvent:
    task_uid: int
    name: str
    worker: int
    t_start: float
    t_end: float
    tag: Any = None
    #: Scheduling priority the task ran with (``Task.priority``; 0 for
    #: the D&C graph) — annotated into trace exports so Perfetto studies
    #: can color by it.
    priority: int = 0
    #: Submission index in the run's graph (``Task.seq``): the number a
    #: :class:`~repro.errors.TaskFailure` and a fault spec name a task by.
    seq: int = -1

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class Trace:
    """A recorded schedule: list of events plus machine geometry."""

    def __init__(self, n_workers: int,
                 worker_names: Optional[list[str]] = None):
        self.n_workers = n_workers
        self.events: list[TraceEvent] = []
        #: Measured parked intervals ``(worker, t_start, t_end)`` — filled
        #: by the thread scheduler; empty for backends without parking.
        self.idle_intervals: list[tuple[int, float, float]] = []
        #: Display names of the worker rows in trace exports.  ``None``
        #: falls back to ``worker N``; the persistent WorkerPool labels
        #: its rows ``pool-worker-N`` so session traces attribute events
        #: to the long-lived threads rather than bare ids.
        self.worker_names = worker_names

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def record_idle(self, worker: int, t_start: float, t_end: float) -> None:
        if t_end > t_start:
            self.idle_intervals.append((worker, t_start, t_end))

    # -- summary statistics -------------------------------------------------
    @property
    def makespan(self) -> float:
        if not self.events:
            return 0.0
        t0 = min(e.t_start for e in self.events)
        t1 = max(e.t_end for e in self.events)
        return t1 - t0

    @property
    def busy_time(self) -> float:
        return sum(e.duration for e in self.events)

    @property
    def idle_fraction(self) -> float:
        """Fraction of worker-seconds spent idle within the makespan.

        With measured park intervals (thread scheduler), this is the
        parked time clipped to the makespan window; otherwise it falls
        back to the complement of the busy time.
        """
        total = self.makespan * self.n_workers
        if total <= 0.0:
            return 0.0
        if self.idle_intervals:
            t0 = min(e.t_start for e in self.events)
            t1 = max(e.t_end for e in self.events)
            parked = sum(max(0.0, min(b, t1) - max(a, t0))
                         for _, a, b in self.idle_intervals)
            return min(1.0, parked / total)
        return max(0.0, 1.0 - self.busy_time / total)

    @property
    def inferred_idle_fraction(self) -> float:
        """Complement-of-busy idle estimate (ignores measured parking)."""
        total = self.makespan * self.n_workers
        if total <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.busy_time / total)

    def kernel_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for e in self.events:      # e.duration, without the property call
            out[e.name] = out.get(e.name, 0.0) + (e.t_end - e.t_start)
        return out

    def kernel_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.events:
            out[e.name] = out.get(e.name, 0) + 1
        return out

    def worker_events(self) -> list[list[TraceEvent]]:
        rows: list[list[TraceEvent]] = [[] for _ in range(self.n_workers)]
        for e in sorted(self.events, key=lambda e: e.t_start):
            rows[e.worker].append(e)
        return rows

    # -- rendering ------------------------------------------------------------
    def gantt(self, width: int = 100, legend: bool = True) -> str:
        """ASCII Gantt chart: one row per worker, one letter per kernel.

        Mirrors the paper's trace figures closely enough to eyeball load
        balance, level barriers and idle (rendered as ``.``).
        """
        if not self.events:
            return "(empty trace)"
        t0 = min(e.t_start for e in self.events)
        span = self.makespan or 1.0
        scale = width / span
        names = sorted({e.name for e in self.events})
        letters: dict[str, str] = {}
        pool = "UVLWSQIDPCABEFGHJKMNORTXYZ0123456789"
        taken: set[str] = set()
        for n in names:
            # Prefer the kernel's own initial when unique; otherwise take
            # the first unused letter/digit, and once the whole pool is
            # exhausted (> 36 distinct names) deterministically share '#'.
            c = n[0].upper() if n else "#"
            if not c.isalnum() or c in taken:
                c = next((p for p in pool if p not in taken), "#")
            letters[n] = c
            taken.add(c)
        lines = []
        for w, row in enumerate(self.worker_events()):
            buf = ["."] * width
            for e in row:
                a = int((e.t_start - t0) * scale)
                b = max(a + 1, int((e.t_end - t0) * scale))
                for x in range(a, min(b, width)):
                    buf[x] = letters[e.name]
            lines.append(f"w{w:02d} |" + "".join(buf) + "|")
        if legend:
            leg = "  ".join(f"{v}={k}" for k, v in sorted(letters.items(),
                                                          key=lambda kv: kv[1]))
            lines.append(f"legend: {leg}   (.=idle)  makespan={span:.4g}s")
        return "\n".join(lines)

    def to_chrome_trace(self, ts_shift: float = 0.0) -> list[dict]:
        """Chrome ``chrome://tracing`` / Perfetto event list.

        Each task becomes a complete ("X") event on its worker row;
        timestamps are microseconds (optionally shifted by ``ts_shift``
        seconds so callers can align with other clocks).  Metadata
        ("M"-phase) records name the process and every worker row and
        order the rows by worker id, so Perfetto labels them.  Dump with
        ``json.dump`` and load in any trace viewer for a zoomable
        version of the paper's Figs. 3-4.
        """
        events: list[dict] = [{
            "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
            "args": {"name": "repro-eig workers"},
        }]
        names = self.worker_names
        for w in range(self.n_workers):
            wname = names[w] if names and w < len(names) else f"worker {w}"
            events.append({"ph": "M", "pid": 0, "tid": w,
                           "name": "thread_name",
                           "args": {"name": wname}})
            events.append({"ph": "M", "pid": 0, "tid": w,
                           "name": "thread_sort_index",
                           "args": {"sort_index": w}})
        for e in sorted(self.events, key=lambda ev: ev.t_start):
            events.append({
                "name": e.name,
                "cat": "task",
                "ph": "X",
                "ts": (e.t_start + ts_shift) * 1e6,
                "dur": max(e.duration * 1e6, 0.01),
                "pid": 0,
                "tid": e.worker,
                "args": {"task": e.task_uid, "tag": repr(e.tag),
                         "priority": e.priority},
            })
        return events

    def summary(self) -> str:
        kt = self.kernel_times()
        total = sum(kt.values()) or 1.0
        idle = f"idle fraction : {self.idle_fraction:.1%}"
        if self.idle_intervals:
            idle += (f"  (measured parking; inferred "
                     f"{self.inferred_idle_fraction:.1%})")
        rows = [f"makespan      : {self.makespan:.6g} s",
                f"busy time     : {self.busy_time:.6g} worker-s",
                idle,
                "per-kernel time:"]
        for k, v in sorted(kt.items(), key=lambda kv: -kv[1]):
            rows.append(f"  {k:<20s} {v:>12.6g} s  ({v / total:6.1%})"
                        f"  x{self.kernel_counts()[k]}")
        return "\n".join(rows)
