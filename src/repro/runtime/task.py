"""Task and data-access primitives of the task-flow runtime.

This module provides the building blocks of the QUARK-like runtime used by
the task-flow Divide & Conquer eigensolver: named :class:`DataHandle` objects
representing logical pieces of data, access-mode qualifiers
(:class:`Access`), and :class:`Task`, a unit of work submitted by a master
thread and executed once all of its dependencies are satisfied.

Access qualifiers follow QUARK semantics (Pichon et al., IPDPS 2015, Sec. IV):

``INPUT``
    The task reads the data.  Concurrent with other readers.
``OUTPUT``
    The task overwrites the data without reading it.
``INOUT``
    The task reads and writes the data; exclusive access.
``GATHERV``
    The extension introduced by the paper: several tasks may *write*
    disjoint parts of the same data concurrently (the programmer guarantees
    disjointness).  A subsequent non-GATHERV access waits for the whole
    group of GATHERV writers.  This keeps the number of dependencies per
    task constant instead of ``Theta(n/nb)``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..errors import GraphError


class Access(enum.Enum):
    """Data access qualifiers understood by the dependency analyzer."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"
    GATHERV = "gatherv"

    @property
    def is_write(self) -> bool:
        return self is not Access.INPUT


#: Convenient aliases mirroring the QUARK C API spelling.
INPUT = Access.INPUT
OUTPUT = Access.OUTPUT
INOUT = Access.INOUT
GATHERV = Access.GATHERV

_handle_counter = itertools.count()


class DataHandle:
    """A logical piece of data tracked by the dependency analyzer.

    The runtime never looks inside the payload; it only uses handle
    *identity* to order accesses, exactly like QUARK orders accesses on
    data addresses.  A handle optionally carries a ``payload`` for
    convenience (e.g. a NumPy array or a dict of merge-state fields).
    """

    __slots__ = ("name", "payload", "uid", "_last_writers", "_readers",
                 "_gatherv_open", "_group_base")

    def __init__(self, name: str = "", payload: Any = None):
        self.uid = next(_handle_counter)
        self.name = name or f"h{self.uid}"
        self.payload = payload
        # Dependency-tracking state (owned by the TaskGraph that registers
        # accesses; reset between graph builds via ``reset_tracking``).
        self._last_writers: list["Task"] = []
        self._readers: list["Task"] = []
        self._gatherv_open = False
        self._group_base: list["Task"] = []

    def reset_tracking(self) -> None:
        self._last_writers = []
        self._readers = []
        self._gatherv_open = False
        self._group_base = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataHandle({self.name!r})"


@dataclass
class TaskCost:
    """Abstract cost of one task, used by the discrete-event simulator.

    ``flops``
        Floating point operations performed (double precision).
    ``bytes_moved``
        Memory traffic in bytes for memory-bound kernels (copies,
        permutations).  A task whose runtime is dominated by
        ``bytes_moved`` contends for socket bandwidth in the simulator.
    ``serial_overhead``
        Fixed scheduling/bookkeeping seconds added to the duration.
    """

    flops: float = 0.0
    bytes_moved: float = 0.0
    serial_overhead: float = 0.0

    def __add__(self, other: "TaskCost") -> "TaskCost":
        return TaskCost(self.flops + other.flops,
                        self.bytes_moved + other.bytes_moved,
                        self.serial_overhead + other.serial_overhead)


_task_counter = itertools.count()


class Task:
    """A unit of work with declared data accesses.

    Parameters
    ----------
    func:
        The callable executed by a worker.  Called as ``func(*args)``.
    accesses:
        Sequence of ``(handle, Access)`` pairs declaring how the task
        touches data.  Order does not matter.
    name:
        Kernel name used for traces (e.g. ``"LAED4"``); tasks with the
        same name share a color in rendered traces (paper Table II).
    cost:
        Optional :class:`TaskCost` (or zero-argument callable returning
        one) consumed by the simulator backend.
    priority:
        Larger runs earlier among ready tasks (ties broken by submission
        order, i.e. the sequential-task-flow order).
    tag:
        Free-form metadata (tree node id, panel index, ...) carried into
        the trace.
    """

    __slots__ = ("uid", "name", "func", "args", "accesses", "priority",
                 "cost", "tag", "successors", "n_deps", "_done",
                 "seq", "result")

    def __init__(self,
                 func: Callable[..., Any],
                 accesses: Sequence[tuple[DataHandle, Access]] = (),
                 *,
                 args: Sequence[Any] = (),
                 name: str = "",
                 cost: Optional[TaskCost | Callable[[], TaskCost]] = None,
                 priority: int = 0,
                 tag: Any = None):
        self.uid = next(_task_counter)
        self.seq = -1  # assigned at submission
        self.name = name or getattr(func, "__name__", "task")
        self.func = func
        self.args = tuple(args)
        self.accesses = list(accesses)
        self.priority = priority
        self.cost = cost
        self.tag = tag
        self.successors: list[Task] = []
        self.n_deps = 0
        self._done = False
        self.result: Any = None

    # -- dependency bookkeeping -------------------------------------------------
    def add_successor(self, succ: "Task") -> None:
        """Add an edge self -> succ (caller must avoid duplicates per pair).

        Edges must point forward in submission order (``seq``), so every
        graph is acyclic as built and no run has to re-check it.
        """
        if not 0 <= self.seq < succ.seq:
            raise GraphError(
                f"edge {self.name!r} (seq {self.seq}) -> {succ.name!r} "
                f"(seq {succ.seq}) does not point forward in submission "
                "order")
        self.successors.append(succ)
        succ.n_deps += 1

    @property
    def done(self) -> bool:
        return self._done

    def mark_done(self) -> None:
        self._done = True

    def run(self) -> Any:
        self.result = self.func(*self.args)
        return self.result

    def resolved_cost(self) -> TaskCost:
        """Evaluate the task cost (callables are evaluated lazily so costs
        may depend on values computed by predecessor tasks, e.g. the
        deflation count)."""
        c = self.cost
        if c is None:
            return TaskCost()
        if callable(c):
            return c()
        return c

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task#{self.uid}({self.name}, tag={self.tag!r})"
