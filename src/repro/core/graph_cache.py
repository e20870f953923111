"""Matrix-independent DAG template cache (paper Sec. IV, exploited).

The paper's task graph is *matrix independent*: the set of tasks and
their dependencies is a pure function of the problem shape — (n, panel
width, minimal partition size, scheduling variant) — never of the matrix
entries (deflation only turns surplus panel tasks into no-ops at
execution time).  Repeated solves of the same shape therefore do not
need to re-run the sequential-task-flow dependency analysis of
``submit_dc``: the task/edge skeleton can be built once, cached as a
:class:`GraphTemplate`, and *rebound* onto a fresh
:class:`~repro.core.merge.DCContext` / ``MergeState`` set for every new
matrix — the key overhead reduction for a high-throughput service that
solves many same-shape problems.

A template records, for every task of a previously analyzed graph,

* a **descriptor** of its functional payload — which kernel method of
  the per-solve context or per-merge state object to bind, plus its
  static arguments (panel ranges, tree nodes; all shape-only), and
* the **successor index lists** and dependency counts of the DAG.

:func:`instantiate` replays that skeleton in O(tasks + edges) with no
dependency analysis, producing a fresh executable
:class:`~repro.runtime.dag.TaskGraph`.  Task costs that depend on
runtime values (deflation counts) are rebuilt as fresh closures over the
new states, so the discrete-event simulator keeps charging
matrix-dependent work on the matrix-independent DAG.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional

from ..runtime.dag import TaskGraph
from ..runtime.task import Task, TaskCost
from . import costs
from .merge import DCContext, MergeState, panel_ranges
from .options import DCOptions
from .tasks import DCGraphInfo, submit_dc
from .tree import Node, build_tree

__all__ = ["GraphTemplate", "GraphTemplateCache", "graph_template_cache",
           "template_key", "build_template", "instantiate"]


def template_key(n: int, opts: DCOptions,
                 subset_size: Optional[int] = None) -> tuple:
    """Cache key: everything the DAG shape (or its binding) depends on.

    ``jobz`` leads the shape fields: the compute mode selects the kernel
    set itself ('N' drops the whole eigenvector pipeline), so 'N' and
    'V' templates of one shape must never collide.
    ``deflation_tol_factor`` is deliberately excluded — it changes task
    *work*, never the graph.  The subset size does not change the graph
    either, but it selects the root-merge output restriction, so it is
    part of the key defensively (shape reuse across subset sizes would
    still be correct; distinct keys keep the cache semantics obvious).

    The panel-width policy contributes too: adaptive mode makes panel
    counts depend on the planned worker count.
    """
    adaptive = opts.adaptive_nb and opts.nb is None
    return (n, opts.jobz, opts.minpart, opts.effective_nb(n),
            opts.fork_join, opts.level_barrier, opts.extra_workspace,
            subset_size, adaptive,
            opts.resolved_parallelism() if adaptive else 0)


class _TaskDescriptor:
    """Shape-only recipe for rebinding one task onto a fresh solve."""

    __slots__ = ("kind", "span", "method", "args", "name", "tag",
                 "static_cost")

    def __init__(self, kind: str, span: Optional[tuple[int, int]],
                 method: str, args: tuple, name: str, tag,
                 static_cost: Optional[TaskCost]):
        self.kind = kind            # "ctx" | "state" | "noop"
        self.span = span            # merge node (lo, hi) for kind="state"
        self.method = method
        self.args = args
        self.name = name
        self.tag = tag
        self.static_cost = static_cost   # shape-only costs, reused as-is


#: Rebuilders for costs that depend on runtime state (deflation counts).
#: Keyed by kernel name; each returns a fresh zero-argument closure over
#: the new MergeState.  Must mirror the wiring in ``tasks.submit_dc``.
_DYNAMIC_COSTS: dict[str, Callable[..., Callable[[], TaskCost]]] = {
    "ApplyGivens": lambda st, g, m: (
        lambda: costs.cost_apply_givens(
            st.n, sum(len(c) for c in st.chains[g::m]))),
    "PermuteV": lambda st, p0, p1: (
        lambda: costs.cost_permute(st.permute_rows_moved(p0, p1))),
    "LAED4": lambda st, p0, p1: (
        lambda: costs.cost_laed4(st.k, st.clip_roots(p0, p1).size)),
    "ComputeLocalW": lambda st, p0, p1, pid: (
        lambda: costs.cost_local_w(st.k, st.clip_roots(p0, p1).size)),
    "CopyBackDeflated": lambda st, p0, p1: (
        lambda: costs.cost_copyback(st.copyback_rows_moved(p0, p1))),
    "ComputeVect": lambda st, p0, p1: (
        lambda: costs.cost_compute_vect(st.k, st.clip_roots(p0, p1).size)),
    "UpdateVect": lambda st, p0, p1: (
        lambda: costs.cost_update_vect(*st.update_vect_shape(p0, p1))),
    "GivensStrip": lambda st: (
        lambda: costs.cost_strip_rotate(st.n, st.strip_rotations())),
    "UpdateStrip": lambda st, p0, p1: (
        lambda: costs.cost_strip_update(st.k, st.clip_roots(p0, p1).size)),
    "UpdateEig": lambda st, p0, p1: (
        lambda: costs.cost_update_eig(st.clip_roots(p0, p1).size)),
}


def _reduce_w_cost(st: MergeState, npan: int) -> Callable[[], TaskCost]:
    return lambda: costs.cost_reduce_w(st.k, npan)


class GraphTemplate:
    """The reusable task/dependency skeleton of one solve shape."""

    def __init__(self, key: tuple, tree: Node,
                 descriptors: list[_TaskDescriptor],
                 successors: list[list[int]], n_deps: list[int],
                 n_edges: int):
        self.key = key
        self.tree = tree
        self.descriptors = descriptors
        self.successors = successors
        self.n_deps = n_deps
        self.n_edges = n_edges

    @property
    def n_tasks(self) -> int:
        return len(self.descriptors)


def build_template(graph: TaskGraph, info: DCGraphInfo,
                   key: tuple) -> GraphTemplate:
    """Derive a :class:`GraphTemplate` from an analyzed task graph.

    Every task inserted by ``submit_dc`` is a bound method of either the
    :class:`DCContext` or one of its ``MergeState`` objects (plus the
    no-op level barriers), so the binding target can be recovered from
    ``task.func`` and re-targeted at instantiation time.
    """
    ctx = info.ctx
    index_of = {t.uid: i for i, t in enumerate(graph.tasks)}
    descriptors: list[_TaskDescriptor] = []
    for t in graph.tasks:
        owner = getattr(t.func, "__self__", None)
        if owner is ctx:
            kind, span = "ctx", None
        elif isinstance(owner, MergeState):
            kind, span = "state", (owner.lo, owner.hi)
        else:                                   # LevelBarrier lambda
            kind, span = "noop", None
        static_cost = t.cost if not callable(t.cost) else None
        descriptors.append(_TaskDescriptor(
            kind, span, getattr(t.func, "__name__", ""), t.args,
            t.name, t.tag, static_cost))
    successors = [[index_of[s.uid] for s in t.successors]
                  for t in graph.tasks]
    n_deps = [t.n_deps for t in graph.tasks]
    return GraphTemplate(key, info.tree, descriptors, successors,
                         n_deps, graph.n_edges)


def instantiate(template: GraphTemplate,
                ctx: DCContext) -> tuple[TaskGraph, DCGraphInfo]:
    """Rebind the cached skeleton onto a fresh solve context.

    O(tasks + edges); skips ``build_tree`` and the whole sequential-task-
    flow dependency analysis of ``submit_dc``.
    """
    tree = template.tree
    info = DCGraphInfo(ctx, tree)
    for node in tree.post_order():
        if not node.is_leaf:
            info.states[(node.lo, node.hi)] = MergeState(ctx, node)
    npan_of = {span: len(panel_ranges(st.node.n,
                                      ctx.opts.node_nb(st.node.n, ctx.n)))
               for span, st in info.states.items()}

    graph = TaskGraph()
    tasks: list[Task] = []
    for i, d in enumerate(template.descriptors):
        if d.kind == "ctx":
            func = getattr(ctx, d.method)
            cost = d.static_cost
        elif d.kind == "state":
            st = info.states[d.span]
            func = getattr(st, d.method)
            if d.static_cost is not None:
                cost = d.static_cost
            elif d.name == "ReduceW":
                cost = _reduce_w_cost(st, npan_of[d.span])
            else:
                cost = _DYNAMIC_COSTS[d.name](st, *d.args)
        else:
            func, cost = _noop, d.static_cost
        task = Task(func, (), args=d.args, name=d.name, cost=cost,
                    tag=d.tag)
        task.seq = i
        task.n_deps = template.n_deps[i]
        tasks.append(task)
    for i, succ in enumerate(template.successors):
        t = tasks[i]
        for j in succ:
            t.successors.append(tasks[j])
    graph.tasks = tasks
    graph._edges = template.n_edges
    return graph, info


def _noop() -> None:
    return None


class GraphTemplateCache:
    """Thread-safe LRU registry of :class:`GraphTemplate` objects by shape.

    Long-running sessions solve streams of mixed shapes; LRU eviction
    (every hit refreshes its entry) keeps the hot templates resident
    where the earlier FIFO policy would age them out by insertion time.
    ``hits``/``misses``/``evictions`` are cache-lifetime totals; a
    session's ``stats()`` carries them into :func:`repro.obs.solve_metrics`.
    """

    def __init__(self, maxsize: int = 32):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._templates: OrderedDict[tuple, GraphTemplate] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> Optional[GraphTemplate]:
        with self._lock:
            tpl = self._templates.get(key)
            if tpl is None:
                self.misses += 1
            else:
                self.hits += 1
                self._templates.move_to_end(key)
            return tpl

    def put(self, template: GraphTemplate) -> None:
        with self._lock:
            if template.key in self._templates:
                self._templates.move_to_end(template.key)
            elif len(self._templates) >= self.maxsize:
                # Evict the least-recently-used entry (head of the
                # OrderedDict: get() refreshes recency on every hit).
                self._templates.popitem(last=False)
                self.evictions += 1
            self._templates[template.key] = template

    def stats(self) -> dict:
        """Lifetime counter snapshot (hit rate, eviction count, size)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "size": len(self._templates),
                    "hit_rate": self.hits / lookups if lookups else None}

    def get_or_build(self, ctx: DCContext,
                     key: tuple) -> tuple[TaskGraph, DCGraphInfo]:
        """Instantiate from cache, building the template on a miss.

        On a miss the graph is built the normal way (``build_tree`` +
        ``submit_dc``) and its skeleton is cached for the next solve of
        the same shape.
        """
        tpl = self.get(key)
        if tpl is not None:
            return instantiate(tpl, ctx)
        graph = TaskGraph()
        tree = build_tree(ctx.n, ctx.opts.minpart)
        info = submit_dc(graph, ctx, tree)
        self.put(build_template(graph, info, key))
        return graph, info

    def clear(self) -> None:
        with self._lock:
            self._templates.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._templates)


#: Process-wide cache consulted by ``dc_eigh(options=...(reuse_graph=True))``.
graph_template_cache = GraphTemplateCache()
