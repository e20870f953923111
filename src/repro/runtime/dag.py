"""Dependency analysis: sequential task flow -> task DAG.

A master thread submits tasks in program order (the *sequential task
flow*).  For every data handle the analyzer maintains the set of
outstanding readers and the last writer(s) and inserts edges following
the usual superscalar rules, extended with the paper's GATHERV
qualifier:

* ``INPUT``  depends on the last writer group (RAW).
* ``OUTPUT``/``INOUT`` depend on the last writer group and every reader
  since then (WAW + WAR).
* ``GATHERV`` writers depend on whatever the *first* writer of the group
  depended on, but **not on each other**; the next non-GATHERV access
  closes the group and depends on all of its members.

The analyzer deduplicates edges per task pair so dependency counts
reflect the DAG, not the access list.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from ..errors import GraphError
from .task import Access, DataHandle, Task, TaskCost


class TaskGraph:
    """A DAG of tasks built by sequential submission.

    The graph object owns the dependency-tracking state of every handle
    that passes through it; handles are reset lazily when first seen so
    the same logical handles can be reused across graph builds.
    """

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self._seen_handles: set[int] = set()
        self._edges = 0

    # ------------------------------------------------------------------
    def insert_task(self,
                    func: Callable[..., Any],
                    accesses: Sequence[tuple[DataHandle, Access]] = (),
                    *,
                    args: Sequence[Any] = (),
                    name: str = "",
                    cost: Optional[TaskCost | Callable[[], TaskCost]] = None,
                    priority: int = 0,
                    tag: Any = None) -> Task:
        """Submit one task; mirrors ``QUARK_Insert_Task``."""
        task = Task(func, accesses, args=args, name=name, cost=cost,
                    priority=priority, tag=tag)
        return self.submit(task)

    def submit(self, task: Task) -> Task:
        task.seq = len(self.tasks)
        deps: dict[int, Task] = {}

        for handle, mode in task.accesses:
            if handle.uid not in self._seen_handles:
                handle.reset_tracking()
                self._seen_handles.add(handle.uid)

            if mode is Access.INPUT:
                if handle._gatherv_open:
                    # A read closes the GATHERV group.
                    handle._gatherv_open = False
                for w in handle._last_writers:
                    deps[w.uid] = w
                handle._readers.append(task)

            elif mode in (Access.OUTPUT, Access.INOUT):
                if handle._gatherv_open:
                    handle._gatherv_open = False
                for w in handle._last_writers:
                    deps[w.uid] = w
                for r in handle._readers:
                    if r is not task:
                        deps[r.uid] = r
                handle._last_writers = [task]
                handle._readers = []

            elif mode is Access.GATHERV:
                if not handle._gatherv_open:
                    # Open a new group: remember what the group depends on.
                    base = list(handle._last_writers) + list(handle._readers)
                    handle._group_base = base
                    handle._last_writers = []
                    handle._readers = []
                    handle._gatherv_open = True
                for b in handle._group_base:
                    if b is not task:
                        deps[b.uid] = b
                handle._last_writers.append(task)

            else:  # pragma: no cover - exhaustive over Access
                raise ValueError(f"unknown access mode {mode!r}")

        for dep in deps.values():
            if not dep.done:
                dep.add_successor(task)
                self._edges += 1
            # A completed predecessor imposes no constraint; this only
            # happens when building incrementally while executing.

        self.tasks.append(task)
        return task

    # ------------------------------------------------------------------
    @classmethod
    def fuse(cls, graphs: Iterable["TaskGraph"]) -> "TaskGraph":
        """Concatenate independent graphs into one super-DAG.

        Tasks keep their identity, edges and dependency counts; ``seq``
        is reassigned to the fused submission order (sub-graph order,
        then intra-graph order), so any scheduler runs the fusion like a
        single graph and tasks from different sub-graphs interleave
        freely — the batch analogue of the paper's "independent merges
        overlap" property.  The fused graph takes ownership: the input
        graphs must not be executed separately afterwards.
        """
        fused = cls()
        for sub in graphs:
            for t in sub.tasks:
                t.seq = len(fused.tasks)
                fused.tasks.append(t)
            fused._edges += sub.n_edges
        return fused

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_edges(self) -> int:
        return self._edges

    def ready_tasks(self) -> list[Task]:
        return [t for t in self.tasks if t.n_deps == 0 and not t.done]

    def kernel_counts(self) -> dict[str, int]:
        """Histogram of task kernel names (used to check Fig. 2 / Table II)."""
        out: dict[str, int] = {}
        for t in self.tasks:
            out[t.name] = out.get(t.name, 0) + 1
        return out

    def levels(self) -> list[list[Task]]:
        """Topological levels (longest-path depth) of the DAG.

        Level ``i`` contains tasks whose longest dependency chain from a
        source has length ``i``; this matches the row layout used to draw
        the paper's Fig. 2.
        """
        depth = {t.uid: 0 for t in self.tasks}
        indeg = {t.uid: t.n_deps for t in self.tasks}
        from collections import deque
        q = deque(t for t in self.tasks if indeg[t.uid] == 0)
        seen = 0
        while q:
            t = q.popleft()
            seen += 1
            for s in t.successors:
                depth[s.uid] = max(depth[s.uid], depth[t.uid] + 1)
                indeg[s.uid] -= 1
                if indeg[s.uid] == 0:
                    q.append(s)
        if seen != len(self.tasks):
            raise GraphError("task graph has a cycle")
        nlev = 1 + max(depth.values(), default=0)
        levels: list[list[Task]] = [[] for _ in range(nlev)]
        for t in self.tasks:
            levels[depth[t.uid]].append(t)
        return levels

    def critical_path_cost(self,
                           duration: Callable[[Task], float]) -> float:
        """Length of the weighted critical path through the DAG."""
        # Walk in topological order; finish[uid] first accumulates the max
        # predecessor finish (the ready time), then becomes the task's own
        # finish time once visited.
        finish: dict[int, float] = {}
        for lev in self.levels():
            for t in lev:
                base = finish.get(t.uid, 0.0)
                end = base + duration(t)
                finish[t.uid] = end
                for s in t.successors:
                    finish[s.uid] = max(finish.get(s.uid, 0.0), end)
        return max((finish[t.uid] for t in self.tasks), default=0.0)

    def validate_acyclic(self) -> None:
        self.levels()  # raises on cycle

    def to_dot(self, max_tasks: int = 400) -> str:
        """GraphViz rendering of the DAG (for Fig.-2-style inspection)."""
        shown = {t.uid for t in self.tasks[:max_tasks]}
        lines = ["digraph taskflow {", "  rankdir=TB;"]
        for t in self.tasks[:max_tasks]:
            label = f"{t.name}\\n#{t.uid}"
            lines.append(f'  t{t.uid} [label="{label}"];')
        for t in self.tasks[:max_tasks]:
            for s in t.successors:
                if s.uid in shown:
                    lines.append(f"  t{t.uid} -> t{s.uid};")
        lines.append("}")
        return "\n".join(lines)
