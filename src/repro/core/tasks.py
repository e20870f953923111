"""Task-graph construction for the D&C eigensolver (paper Sec. IV, Fig. 2).

``submit_dc`` walks the partition tree bottom-up and inserts the tasks of
Algorithm 1 into a :class:`~repro.runtime.dag.TaskGraph` with the access
qualifiers described in the paper:

* panel tasks carry an O(1) number of dependencies: their own panel
  handles plus a GATHERV on the full (logical) matrix of the merge;
* the join kernels (``Compute_deflation``, ``ReduceW``) take a single
  INOUT on the merge's data;
* the DAG is **matrix independent**: one task per panel is submitted for
  every kernel regardless of deflation; tasks whose panel falls entirely
  in the deflated range become no-ops at execution time.

Every task is submitted at priority 0, so ready tasks run in submission
order (QUARK's sequential task flow); the panel-width policy
(``DCOptions.node_nb``) is the only scheduling decision made here.

Scheduling variants used in the evaluation are expressed purely with
extra dependencies:

* ``fork_join`` threads a serial token through every non-GEMM task
  (``UpdateVect`` panels form GATHERV groups on the token) — the
  multithreaded-BLAS model of MKL LAPACK (Fig. 3(a));
* ``level_barrier`` inserts a barrier task between merge-tree levels
  (Fig. 3(b));
* without either, independent merges overlap freely (Fig. 3(c) — the
  paper's contribution).

Compute modes (``DCOptions.jobz``): both modes share the deflation /
secular / stabilization spine and the boundary-row *strip* kernels
(``GivensStrip``/``PermuteStrip``/``UpdateStrip``) that carry each
node's two boundary rows — the single source of every merge's rank-one
z.  ``'V'`` additionally runs the classic eigenvector kernels
(``LASET``, ``ApplyGivens``, ``PermuteV``, ``CopyBackDeflated``,
``ComputeVect``, ``UpdateVect``, per-panel ``SortEigenvectors``);
``'N'`` omits them all — no O(n·k) task remains, the root merge writes
eigenvalues with O(m)-per-panel ``UpdateEig`` tasks, and the DAG's
auxiliary state is O(n).

Task costs (:mod:`repro.core.costs`) are what the discrete-event
simulator charges: shape-only costs are static, deflation-dependent
ones are closures evaluated when the task starts.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.dag import TaskGraph
from ..runtime.task import DataHandle, INPUT, INOUT, OUTPUT, GATHERV, TaskCost
from . import costs
from .merge import DCContext, MergeState, panel_ranges
from .tree import Node, build_tree

__all__ = ["submit_dc", "DCGraphInfo"]


class DCGraphInfo:
    """Handles and states of a submitted D&C task graph."""

    def __init__(self, ctx: DCContext, tree: Node):
        self.ctx = ctx
        self.tree = tree
        self.states: dict[tuple[int, int], MergeState] = {}
        self.hV: dict[tuple[int, int], DataHandle] = {}


def submit_dc(graph: TaskGraph, ctx: DCContext,
              tree: Optional[Node] = None) -> DCGraphInfo:
    """Insert the complete D&C task flow for ``ctx`` into ``graph``."""
    opts = ctx.opts
    n = ctx.n
    tree = tree or build_tree(n, opts.minpart)
    info = DCGraphInfo(ctx, tree)

    hT = DataHandle("T")
    serial = DataHandle("serial-token") if opts.fork_join else None

    def acc(base, parallel: bool = False):
        """Append the fork/join serial token to an access list.

        In fork/join mode every task is serialized on the token except
        the ``UpdateVect`` GEMMs, which form GATHERV groups on it — the
        parallel-BLAS region between two sequential sections."""
        if serial is not None:
            base = list(base) + [(serial, GATHERV if parallel else INOUT)]
        return base

    ins = graph.insert_task
    ins(ctx.t_scale, acc([(hT, INOUT)]), name="ScaleT",
        cost=costs.cost_scale(n))
    ins(ctx.t_partition, acc([(hT, INOUT)]), args=(tree,),
        name="Partition", cost=costs.cost_scale(n))

    # --- leaves ---------------------------------------------------------
    for leaf in tree.leaves():
        h = DataHandle(f"V[{leaf.lo}:{leaf.hi}]")
        info.hV[(leaf.lo, leaf.hi)] = h
        if opts.jobz == "V":
            ins(ctx.t_laset, acc([(h, OUTPUT)]), args=(leaf,),
                name="LASET", tag=(leaf.lo, leaf.hi),
                cost=costs.cost_laset(n, leaf.n))
        ins(ctx.t_stedc_leaf,
            acc([(hT, INPUT), (h, INOUT)]), args=(leaf,),
            name="STEDC", tag=(leaf.lo, leaf.hi),
            cost=costs.cost_stedc(leaf.n))

    # --- merges, bottom-up with optional level barriers ------------------
    prev_level_barrier: Optional[DataHandle] = None
    for level_nodes in tree.merges_by_level():
        if opts.level_barrier:
            hbar = DataHandle("level-barrier")
            deps = [(info.hV[(nd.left.lo, nd.left.hi)], INPUT)
                    for nd in level_nodes]
            deps += [(info.hV[(nd.right.lo, nd.right.hi)], INPUT)
                     for nd in level_nodes]
            ins(lambda: None, acc(deps + [(hbar, OUTPUT)]),
                name="LevelBarrier", cost=TaskCost())
            prev_level_barrier = hbar
        for node in level_nodes:
            _submit_merge(ins, info, node, acc, prev_level_barrier)

    # --- final ordering + scale back -------------------------------------
    hroot = info.hV[(tree.lo, tree.hi)]
    hsort = DataHandle("sort-order")
    ins(ctx.t_sort_join, acc([(hroot, INPUT), (hsort, OUTPUT)]),
        name="SortEigenvectors", cost=costs.cost_scale(n))
    if opts.jobz == "V":
        hVout = DataHandle("V-sorted")
        for (p0, p1) in panel_ranges(n, opts.node_nb(n, n)):
            ins(ctx.t_sort_panel,
                acc([(hsort, INPUT), (hroot, INPUT), (hVout, GATHERV)]),
                args=(p0, p1), name="SortEigenvectors", tag=("sort", p0),
                cost=costs.cost_sort(n, p1 - p0))
        ins(ctx.t_scale_back, acc([(hsort, INPUT), (hVout, INOUT)]),
            name="ScaleBack", cost=costs.cost_scale(n))
    else:
        # jobz='N': no eigenvector panels to reorder, only the
        # eigenvalue array is unscaled.
        ins(ctx.t_scale_back, acc([(hsort, INOUT)]),
            name="ScaleBack", cost=costs.cost_scale(n))
    return info


def _submit_merge(ins, info: DCGraphInfo, node: Node,
                  acc, level_barrier: Optional[DataHandle]) -> None:
    ctx = info.ctx
    opts = ctx.opts
    eig_only = opts.jobz == "N"
    is_root = node.n == ctx.n
    st = MergeState(ctx, node)
    info.states[(node.lo, node.hi)] = st

    hL = info.hV[(node.left.lo, node.left.hi)]
    hR = info.hV[(node.right.lo, node.right.hi)]
    hV = DataHandle(f"V[{node.lo}:{node.hi}]")
    info.hV[(node.lo, node.hi)] = hV
    hdefl = DataHandle(f"defl[{node.lo}:{node.hi}]")
    hVws = DataHandle(f"Vws[{node.lo}:{node.hi}]")
    hW = DataHandle(f"W[{node.lo}:{node.hi}]")
    hcb = DataHandle(f"cbdone[{node.lo}:{node.hi}]")
    panels = panel_ranges(node.n, opts.node_nb(node.n, ctx.n))
    npan = len(panels)
    hsec = [DataHandle(f"sec[{node.lo}:{node.hi}]p{i}") for i in range(npan)]
    hX = [DataHandle(f"X[{node.lo}:{node.hi}]p{i}") for i in range(npan)]
    tag = (node.lo, node.hi)

    barrier_dep = [(level_barrier, INPUT)] if level_barrier is not None else []

    # Deflating rotations: a fixed, small number of groups (keeps the DAG
    # matrix-independent and every panel task's dependency count O(1));
    # chains are distributed round-robin at execution time.
    n_rot_groups = min(npan, 4)

    ins(st.t_compute_deflation,
        acc([(hL, INPUT), (hR, INPUT), (hdefl, OUTPUT)] + barrier_dep),
        name="Compute_deflation", tag=tag,
        cost=costs.cost_compute_deflation(node.n))

    # Boundary-row strip pipeline (both modes; skipped at the root, whose
    # strip has no consumer).  One task each — the strip is 2 rows, so
    # panelization would be pure dispatch overhead.  hdefl alone orders
    # GivensStrip after every writer of the child blocks (through
    # Compute_deflation's hL/hR inputs).
    if not is_root:
        hP = DataHandle(f"P[{node.lo}:{node.hi}]")
        hPws = DataHandle(f"Pws[{node.lo}:{node.hi}]")
        ins(st.t_givens_strip, acc([(hdefl, INPUT), (hP, OUTPUT)]),
            name="GivensStrip", tag=tag,
            cost=(lambda s=st:
                  costs.cost_strip_rotate(s.n, s.strip_rotations())))
        ins(st.t_permute_strip,
            acc([(hdefl, INPUT), (hP, INPUT), (hPws, OUTPUT)]),
            name="PermuteStrip", tag=tag,
            cost=costs.cost_strip_permute(node.n))

    if not eig_only:
        for g in range(n_rot_groups):
            ins(st.t_apply_givens,
                acc([(hdefl, INPUT), (hL, GATHERV), (hR, GATHERV)]),
                args=(g, n_rot_groups), name="ApplyGivens", tag=tag,
                cost=(lambda s=st, g=g, m=n_rot_groups:
                      costs.cost_apply_givens(
                          s.n, sum(len(c) for c in s.chains[g::m]))))

        for pid, (p0, p1) in enumerate(panels):
            ins(st.t_permute_panel,
                acc([(hdefl, INPUT), (hL, INPUT), (hR, INPUT),
                     (hVws, GATHERV)]),
                args=(p0, p1), name="PermuteV", tag=tag,
                cost=(lambda s=st, a=p0, b=p1:
                      costs.cost_permute(s.permute_rows_moved(a, b))))

    for pid, (p0, p1) in enumerate(panels):
        laed4_acc = [(hdefl, INPUT), (hsec[pid], OUTPUT)]
        if not eig_only and not opts.extra_workspace:
            # No extra buffer: the secular solve waits for all permutes
            # (submission order puts every PermuteV before the first
            # LAED4, so this INPUT closes the whole GATHERV group).
            laed4_acc.append((hVws, INPUT))
        ins(st.t_laed4_panel, acc(laed4_acc),
            args=(p0, p1), name="LAED4", tag=tag,
            cost=(lambda s=st, a=p0, b=p1:
                  costs.cost_laed4(s.k, s.clip_roots(a, b).size)))
        ins(st.t_local_w_panel,
            acc([(hdefl, INPUT), (hsec[pid], INPUT), (hW, GATHERV)]),
            args=(p0, p1, pid), name="ComputeLocalW", tag=tag,
            cost=(lambda s=st, a=p0, b=p1:
                  costs.cost_local_w(s.k, s.clip_roots(a, b).size)))

    ins(st.t_reduce_w, acc([(hdefl, INPUT), (hW, INOUT)]),
        name="ReduceW", tag=tag,
        cost=(lambda s=st, m=npan: costs.cost_reduce_w(s.k, m)))

    if not eig_only:
        for pid, (p0, p1) in enumerate(panels):
            ins(st.t_copyback_panel,
                acc([(hdefl, INPUT), (hVws, INPUT),
                     (hV, GATHERV), (hcb, GATHERV)]),
                args=(p0, p1), name="CopyBackDeflated", tag=tag,
                cost=(lambda s=st, a=p0, b=p1:
                      costs.cost_copyback(s.copyback_rows_moved(a, b))))

        for pid, (p0, p1) in enumerate(panels):
            cv_acc = [(hdefl, INPUT), (hsec[pid], INPUT), (hW, INPUT),
                      (hX[pid], OUTPUT)]
            if not opts.extra_workspace:
                # ComputeVect waits for every copy-back to free the buffer.
                cv_acc.append((hcb, INPUT))
            ins(st.t_compute_vect_panel, acc(cv_acc),
                args=(p0, p1), name="ComputeVect", tag=tag,
                cost=(lambda s=st, a=p0, b=p1:
                      costs.cost_compute_vect(s.k, s.clip_roots(a, b).size)))

        # UpdateVect panels are submitted as one contiguous group so that
        # in fork/join mode they form a single GATHERV group on the serial
        # token (the parallel-BLAS region); dependencies order them anyway.
        for pid, (p0, p1) in enumerate(panels):
            ins(st.t_update_vect_panel,
                acc([(hdefl, INPUT), (hVws, INPUT),
                     (hX[pid], INPUT), (hV, GATHERV)],
                    parallel=True),
                args=(p0, p1), name="UpdateVect", tag=tag,
                cost=(lambda s=st, a=p0, b=p1:
                      costs.cost_update_vect(*s.update_vect_shape(a, b))))

    # Node-output writers of the strip path.  UpdateStrip joins the hV
    # GATHERV group (after CopyBackDeflated/UpdateVect in 'V' mode, alone
    # in 'N' mode) so the parent's Compute_deflation waits for the
    # completed strip; in fork/join mode it is serialized on the token
    # (closing the UpdateVect parallel region, not joining it).
    if not is_root:
        for pid, (p0, p1) in enumerate(panels):
            ins(st.t_strip_update_panel,
                acc([(hdefl, INPUT), (hsec[pid], INPUT), (hW, INPUT),
                     (hPws, INPUT), (hV, GATHERV)]),
                args=(p0, p1), name="UpdateStrip", tag=tag,
                cost=(lambda s=st, a=p0, b=p1:
                      costs.cost_strip_update(s.k,
                                              s.clip_roots(a, b).size)))
    elif eig_only:
        for pid, (p0, p1) in enumerate(panels):
            ins(st.t_update_eig_panel,
                acc([(hdefl, INPUT), (hsec[pid], INPUT), (hW, INPUT),
                     (hV, GATHERV)]),
                args=(p0, p1), name="UpdateEig", tag=tag,
                cost=(lambda s=st, a=p0, b=p1:
                      costs.cost_update_eig(s.clip_roots(a, b).size)))
