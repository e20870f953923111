"""Functional payloads of the D&C tasks (Algorithm 1 of the paper).

Every function here is the *work* of one task of the merge DAG; the task
graph wiring lives in :mod:`repro.core.tasks`.  All state flows through
:class:`DCContext` (one per solve: the eigenvalue array ``D``, the
eigenvector matrix ``V``, the permute workspace ``Vws`` and the 2×n
boundary-row strips ``S``/``P``/``Pws``) and :class:`MergeState` (one
per merge node: deflation output, secular roots, stabilized ẑ and the
secular eigenvector block X).

Compute modes (``DCOptions.jobz``): ``'V'`` runs the full pipeline;
``'N'`` (eigenvalues only) drops ``V``/``Vws`` entirely (both are
``None``) and the O(n²)/O(n³) eigenvector kernels with them — only the
strips survive, carrying the two boundary rows each merge needs to form
its rank-one z.  Both modes source z from the same strip kernels (see
:mod:`repro.kernels.strips`), so the eigenvalues are bitwise identical
between them by construction.

Column storage convention: after a merge, the node's columns are stored
in *compressed order* — the k non-deflated eigenpairs first (grouped by
column type, ascending eigenvalue inside the grouping), then the n−k
deflated ones.  The next level's deflation re-sorts globally, so no
explicit inter-level permutation is required; a final
``SortEigenvectors`` pass orders the root ascending.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConvergenceError, InputError
from ..kernels.deflation import DeflationResult, deflate, rotation_chains
from ..kernels.givens import apply_rotation_chains
from ..kernels.scaling import ScaleInfo, scale_tridiagonal
from ..kernels.secular import solve_secular
from ..kernels.stabilize import (eigenvector_columns, local_w_product,
                                 reduce_w)
from ..kernels.steqr import steqr, steqr_rows
from ..kernels.strips import (permute_strip, rotate_strip_columns,
                              stack_boundary_rows, strip_row_products)
from .options import DCOptions
from .tree import Node

__all__ = ["DCContext", "MergeState", "panel_ranges"]


def panel_ranges(n: int, nb: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into panels of width ``nb`` (at least one)."""
    if n <= 0:
        return [(0, 0)]
    return [(p, min(p + nb, n)) for p in range(0, n, nb)]


@dataclass
class MergeStats:
    """Per-merge record used for the Table I / complexity analyses and
    the solve's telemetry (:func:`repro.obs.solve_metrics`)."""

    n: int = 0
    k: int = 0
    n_rotations: int = 0
    secular_sweeps: int = 0
    lo: int = 0
    hi: int = 0
    fallback: bool = False
    #: LAED4 sweeps of each secular root, in root order (roots of a
    #: panel whose solve raised are missing).
    secular_iterations: list[int] = field(default_factory=list)

    @property
    def deflation_ratio(self) -> float:
        return (self.n - self.k) / self.n if self.n else 0.0


class DCContext:
    """Shared state of one D&C solve."""

    def __init__(self, d: np.ndarray, e: np.ndarray, opts: DCOptions,
                 subset: np.ndarray | None = None, workspace=None):
        d = np.asarray(d, dtype=np.float64)
        e = np.asarray(e, dtype=np.float64)
        n = d.shape[0]
        if n == 0:
            raise InputError("empty matrix")
        if e.shape[0] != max(0, n - 1):
            raise InputError("e must have length n-1")
        if not np.isfinite(d).all() or not np.isfinite(e).all():
            # Defense in depth: dc_eigh validates at the API boundary,
            # but DCContext is also constructed directly by tests/tools.
            raise InputError("tridiagonal input contains non-finite entries")
        self.n = n
        self.opts = opts
        self.d_in = d
        self.e_in = e
        # Subset computation ([6]-style): indices of wanted eigenpairs.
        # All eigenvalues are always computed; only the final merge's
        # eigenvector update and the output are restricted.
        if subset is not None:
            subset = np.unique(np.asarray(subset, dtype=np.intp))
            # Empty is legal: "all eigenvalues, no eigenvectors".
            if subset.size and (subset[0] < 0 or subset[-1] >= n):
                bad = int(subset[0]) if subset[0] < 0 else int(subset[-1])
                raise InputError(
                    f"subset index {bad} out of range for n={n}")
        self.subset = subset
        # Filled by the ScaleT / Partition tasks:
        self.d: Optional[np.ndarray] = None
        self.e: Optional[np.ndarray] = None
        self.scale_info: Optional[ScaleInfo] = None
        self.d_adj: Optional[np.ndarray] = None
        # Global solve storage (column-major so column ops are contiguous).
        # With a WorkspacePool the two n^2 buffers are recycled from
        # earlier same-shape solves instead of freshly allocated; every
        # read of V/Vws is preceded by a task that writes it (LASET
        # zeroes all of V, PermuteV/SortEigenvectors write every Vws
        # location later read), so recycled contents never leak into
        # results — numerics are bitwise identical either way.
        # Boundary-row strips (see repro.kernels.strips): S holds each
        # completed node's two boundary rows, P/Pws are the per-merge
        # stacked and permuted working strips.  Allocated in BOTH modes
        # (6n doubles) — z is always derived from them — while the n²
        # buffers V/Vws exist only when eigenvectors are requested.
        # Dirty reuse of pooled strips is exact: every leaf writes its
        # S columns before any read, GivensStrip writes P[:, lo:hi]
        # before PermuteStrip reads it, and PermuteStrip writes
        # Pws[:, lo:hi] before UpdateStrip reads it.
        self.workspace = workspace
        jobz_v = opts.jobz == "V"
        self.D = np.zeros(n)
        if workspace is not None:
            self.V = workspace.take((n, n)) if jobz_v else None
            self.Vws = workspace.take((n, n)) if jobz_v else None
            self.S = workspace.take((2, n))
            self.P = workspace.take((2, n))
            self.Pws = workspace.take((2, n))
        else:
            self.V = np.zeros((n, n), order="F") if jobz_v else None
            self.Vws = np.zeros((n, n), order="F") if jobz_v else None
            self.S = np.zeros((2, n), order="F")
            self.P = np.zeros((2, n), order="F")
            self.Pws = np.zeros((2, n), order="F")
        # Final ordering (SortEigenvectors / ScaleBack).
        self.order: Optional[np.ndarray] = None
        self.D_sorted: Optional[np.ndarray] = None
        # Keyed by merge span so concurrent registration (threads backend)
        # never races on a list and the exposed order is deterministic.
        self._merge_stats: dict[tuple[int, int], MergeStats] = {}

    @property
    def merge_stats(self) -> list[MergeStats]:
        """Per-merge stats, bottom-up by tree level (root merge last).

        Entries are registered in execution order, which is backend
        dependent; sorting by (span size, lo) restores the deterministic
        bottom-up tree order regardless of the schedule.
        """
        return [self._merge_stats[key] for key in
                sorted(self._merge_stats, key=lambda s: (s[1] - s[0], s[0]))]

    # -- root-level tasks --------------------------------------------------
    def t_scale(self) -> None:
        self.d, self.e, self.scale_info = scale_tridiagonal(self.d_in,
                                                            self.e_in)

    def t_partition(self, tree: Node) -> None:
        """Apply the −|β| corner corrections at every cut (Eq. 5)."""
        d_adj = self.d.copy()
        for m in tree.cut_points():
            b = abs(self.e[m - 1])
            d_adj[m - 1] -= b
            d_adj[m] -= b
        self.d_adj = d_adj

    def t_laset(self, node: Node) -> None:
        lo, hi = node.lo, node.hi
        self.V[:, lo:hi] = 0.0
        self.V[lo:hi, lo:hi][np.diag_indices(hi - lo)] = 1.0

    def t_stedc_leaf(self, node: Node) -> None:
        lo, hi = node.lo, node.hi
        self.D[lo:hi], self.S[:, lo:hi] = self.steqr_block(
            lo, hi, self.d_adj[lo:hi], self.e[lo:hi - 1])

    def steqr_block(self, lo: int, hi: int, d: np.ndarray,
                    e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """STEQR-solve ``(d, e)``, block [lo, hi) of T: ``(lam, rows)``.

        ``rows`` are the first and last eigenvector rows, which seed the
        boundary-row strip; ``jobz='V'`` also writes the eigenvectors
        into ``V[lo:hi, lo:hi]``."""
        if self.V is None:
            return steqr_rows(d, e)
        lam, Vb = steqr(d, e)
        self.V[lo:hi, lo:hi] = Vb
        return lam, Vb[[0, -1]]

    def t_sort_join(self) -> None:
        order = np.argsort(self.D, kind="stable")
        if self.subset is not None:
            order = order[self.subset]
        self.order = order
        self.D_sorted = self.D[order]

    def t_sort_panel(self, p0: int, p1: int) -> None:
        p1 = min(p1, self.order.shape[0])
        if p0 < p1:
            self.Vws[:, p0:p1] = self.V[:, self.order[p0:p1]]

    def t_scale_back(self) -> None:
        self.scale_info.unscale_eigenvalues(self.D_sorted)

    def result(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        if self.Vws is None:            # jobz='N': eigenvalues only
            return self.D_sorted, None
        if self.subset is not None:
            return self.D_sorted, self.Vws[:, :self.subset.shape[0]]
        return self.D_sorted, self.Vws

    def release_workspace(self, states=(), keep_result: bool = True) -> None:
        """Return pooled buffers to the arena once the solve is over.

        ``V`` and every merge's secular block ``X`` go back to the pool
        for the next same-shape solve.  ``Vws`` holds the sorted
        eigenvectors — the solve's *result* — so on success its
        ownership transfers out of the pool to the caller
        (``keep_result=True``); a failed solve has no result and
        recycles it too.  Idempotent; a no-op without a pool.
        """
        ws = self.workspace
        if ws is None:
            return
        self.workspace = None
        for st in states:
            if st.X is not None and st.X.size:
                ws.release(st.X)
            st.X = None
        for buf in (self.S, self.P, self.Pws):
            if buf is not None:
                ws.release(buf)
        self.S = self.P = self.Pws = None
        if self.V is not None:
            ws.release(self.V)
            self.V = None
        if self.Vws is None:
            pass                        # jobz='N': nothing to hand out
        elif keep_result:
            ws.forget(self.Vws)
        else:
            ws.release(self.Vws)
            self.Vws = None


class MergeState:
    """Per-merge-node state, produced/consumed by the eight kernels."""

    def __init__(self, ctx: DCContext, node: Node):
        self.ctx = ctx
        self.node = node
        self.lo, self.hi = node.lo, node.hi
        self.mid = node.mid
        self.defl: Optional[DeflationResult] = None
        self.chains: list = []
        self.orig: Optional[np.ndarray] = None
        self.tau: Optional[np.ndarray] = None
        self.lam: Optional[np.ndarray] = None
        self.zhat: Optional[np.ndarray] = None
        self.wparts: dict[int, np.ndarray] = {}
        self.X: Optional[np.ndarray] = None
        self.wanted_stored: Optional[np.ndarray] = None
        self.stats = MergeStats(lo=node.lo, hi=node.hi)
        # Secular sweep counts (the panel's, and each root's),
        # accumulated per panel (keyed by p0) and reduced into ``stats``
        # by t_reduce_w: panel tasks run concurrently under the threads
        # backend, so a shared read-modify-write on stats would race.
        self._sweeps: dict[int, tuple[int, np.ndarray]] = {}
        # Graceful degradation: when the secular solve of this merge
        # fails (no convergence / non-finite roots), the merge falls
        # back to STEQR on its subproblem.  The rewrite must happen
        # after *every* writer of the node's output block has finished —
        # the writer panels share one GATHERV group on hV, so they carry
        # no mutual edges and run concurrently under the threads
        # backend.  Each writer task decrements the countdown when it
        # completes; the last one performs the fallback.  Detection
        # always precedes the last writer: every writer depends
        # (transitively, through ReduceW → hW) on every LAED4 panel.
        # Writers per mode: jobz='V' has CopyBackDeflated + UpdateVect
        # (+ UpdateStrip below the root); jobz='N' has UpdateStrip only
        # (UpdateEig at the root).
        self.secular_failed = False
        self.fallback_exc: Optional[BaseException] = None
        self._flock = threading.Lock()
        npan = len(panel_ranges(node.n, ctx.opts.node_nb(node.n, ctx.n)))
        is_root = node.n == ctx.n
        if ctx.opts.jobz == "N":
            self._writers_left = npan
        else:
            self._writers_left = 2 * npan + (0 if is_root else npan)

    # convenience ----------------------------------------------------------
    @property
    def n(self) -> int:
        return self.hi - self.lo

    @property
    def n1(self) -> int:
        return self.mid - self.lo

    @property
    def k(self) -> int:
        return self.defl.k

    def clip_roots(self, p0: int, p1: int) -> np.ndarray:
        """Root indices of panel [p0, p1) — empty once past k (the
        paper's deflation-independent DAG: surplus tasks become no-ops)."""
        return np.arange(p0, min(p1, self.k), dtype=np.intp)

    # -- secular-failure fallback ------------------------------------------
    def _mark_secular_failure(self, exc: BaseException) -> None:
        """Record a secular-solve failure; first cause wins."""
        with self._flock:
            self.secular_failed = True
            if self.fallback_exc is None:
                self.fallback_exc = exc

    def _writer_done(self) -> None:
        """Countdown called by every CopyBackDeflated/UpdateVect panel.

        The last writer sees the final value of ``secular_failed`` (all
        detection sites are ordered before it by the DAG) and performs
        the STEQR fallback with exclusive access to the block."""
        with self._flock:
            self._writers_left -= 1
            last = self._writers_left == 0
        if last and self.secular_failed:
            self._apply_fallback()

    def _apply_fallback(self) -> None:
        """Recompute the merge's block directly with STEQR (Sec. II QR
        iteration) after a secular failure.

        After the merge of [lo, hi) completes, the block must hold the
        eigendecomposition of the *scaled* tridiagonal T[lo:hi] with the
        −|β| corner corrections of the still-unmerged ancestor cuts
        (Eq. 5): interior cut corrections were undone by the subtree's
        own merges, so only the lo/hi boundaries remain adjusted."""
        ctx = self.ctx
        lo, hi = self.lo, self.hi
        d_sub = ctx.d[lo:hi].copy()
        if lo > 0:
            d_sub[0] -= abs(ctx.e[lo - 1])
        if hi < ctx.n:
            d_sub[-1] -= abs(ctx.e[hi - 1])
        if ctx.V is not None:
            ctx.V[:, lo:hi] = 0.0
        try:
            lam, rows = ctx.steqr_block(lo, hi, d_sub, ctx.e[lo:hi - 1])
        except Exception as exc:
            raise ConvergenceError(
                f"secular solve failed on merge [{lo}, {hi}) "
                f"({self.fallback_exc}) and the STEQR fallback "
                f"also failed") from exc
        ctx.D[lo:hi] = lam
        # Rewrite the strip too: the parent's z reads it.
        ctx.S[:, lo:hi] = rows
        self.stats.fallback = True

    # -- kernels ------------------------------------------------------------
    def t_compute_deflation(self) -> None:
        ctx = self.ctx
        lo, mid, hi = self.lo, self.mid, self.hi
        beta = float(ctx.e[mid - 1])
        dvals = ctx.D[lo:hi]
        # Rank-one vector (Eq. 4): last row of the left child's block,
        # first row of the right child's — read from the boundary-row
        # strips, the single z source of both compute modes.
        z = np.concatenate([ctx.S[1, lo:mid], ctx.S[0, mid:hi]])
        self.defl = deflate(dvals, z, beta, mid - lo,
                            tol_factor=ctx.opts.deflation_tol_factor)
        self.chains = rotation_chains(self.defl.rotations)
        # Run boundaries of the permutation (indices where consecutive
        # source columns break): precomputed once so every PermuteV panel
        # can block-copy runs without per-panel run detection.
        cuts = np.flatnonzero(np.diff(self.defl.perm) != 1) + 1
        self._perm_runs = [0, *cuts.tolist(), self.defl.perm.size]
        k = self.defl.k
        self.orig = np.zeros(k, dtype=np.intp)
        self.tau = np.zeros(k)
        self.lam = np.zeros(k)
        # Secular eigenvector block: pooled when the solve has a
        # workspace arena (every column of X is written by a ComputeVect
        # panel before UpdateVect reads it, so recycling is exact).
        # jobz='N' never materializes the k×k block — UpdateStrip forms
        # its own transient k×m panel — which is what kills the O(n²)
        # term of the merge.
        ws = ctx.workspace
        if k and ctx.opts.jobz == "V":
            self.X = np.zeros((k, k), order="F") if ws is None \
                else ws.take((k, k))
        else:
            self.X = np.zeros((0, 0))
        self.stats.n = self.n
        self.stats.k = k
        self.stats.n_rotations = len(self.defl.rotations)
        ctx._merge_stats[(self.lo, self.hi)] = self.stats

    def t_apply_givens(self, group: int, n_groups: int) -> None:
        """Apply the deflating rotations of chains ``group mod n_groups``.

        Chains touch disjoint columns, so groups can run concurrently
        (GATHERV on the child eigenvector blocks).  Within a group the
        chains are batched into vectorized rounds by
        :func:`~repro.kernels.givens.apply_rotation_chains`: round ``r``
        applies the ``r``-th rotation of every chain with one fancy-indexed
        gather/scatter instead of per-rotation BLAS-1 column updates."""
        if not self.chains:
            return
        ctx = self.ctx
        apply_rotation_chains(ctx.V, self.lo, self.hi,
                              self.chains[group::n_groups])

    def t_apply_givens_ref(self, group: int, n_groups: int) -> None:
        """Seed (per-rotation temporaries) implementation of
        :meth:`t_apply_givens`; kept as the reference for equivalence
        tests and the hot-path microbenchmarks."""
        ctx = self.ctx
        lo, hi = self.lo, self.hi
        for ci in range(group, len(self.chains), n_groups):
            for r in self.chains[ci]:
                qi = ctx.V[lo:hi, lo + r.i]
                qj = ctx.V[lo:hi, lo + r.j]
                tmp = r.c * qi + r.s * qj
                qj *= r.c
                qj -= r.s * qi
                qi[...] = tmp

    def _dest_rows(self, dest: int) -> slice:
        """Row range holding the nonzeros of compressed column ``dest``."""
        k1, k2, _ = self.defl.ctot
        if dest < k1:
            return slice(self.lo, self.mid)        # type 1: top block only
        if dest < k1 + k2 or dest >= self.k:
            return slice(self.lo, self.hi)         # dense / deflated
        return slice(self.mid, self.hi)            # type 3: bottom block

    def _dest_segments(self, p0: int, p1: int
                       ) -> list[tuple[int, int, slice]]:
        """Split panel [p0, p1) into contiguous runs of equal row class.

        The compressed layout groups columns as [type-1 | dense | type-3 |
        deflated], so a panel intersects at most four runs; each run can
        be moved with a single fancy-indexed gather."""
        k1, k2, _ = self.defl.ctot
        k = self.k
        top = slice(self.lo, self.mid)
        full = slice(self.lo, self.hi)
        bot = slice(self.mid, self.hi)
        out = []
        for a, b, rows in ((0, k1, top), (k1, k1 + k2, full),
                           (k1 + k2, k, bot), (k, self.n, full)):
            d0, d1 = max(p0, a), min(p1, b)
            if d0 < d1:
                out.append((d0, d1, rows))
        return out

    def t_permute_panel(self, p0: int, p1: int) -> None:
        """Copy columns [p0, p1) into the workspace in compressed order.

        Within each row-range class (type-1 / dense / type-3 / deflated)
        the permutation is an interleave of a few sorted child sequences,
        so it decomposes into long runs of *consecutive* source columns
        (~10 runs for a full merge).  Each run is one contiguous 2D block
        copy — same bytes as the seed's per-column loop, a small constant
        number of numpy calls.  When a segment is pathologically
        fragmented and the columns are short, a single fancy-indexed
        gather is cheaper than the run loop."""
        ctx = self.ctx
        perm = self.defl.perm
        runs = self._perm_runs
        lo = self.lo
        V, W = ctx.V, ctx.Vws
        for d0, d1, rows in self._dest_segments(p0, p1):
            i0 = bisect_right(runs, d0) - 1
            i1 = bisect_left(runs, d1)
            if (i1 - i0 > (d1 - d0) >> 2
                    and rows.stop - rows.start <= 1024):
                # Fragmented permutation, short columns: one gather beats
                # the run loop.
                W[rows, lo + d0:lo + d1] = V[rows, lo + perm[d0:d1]]
                continue
            d = d0
            for a in range(i0, i1):
                end = min(runs[a + 1], d1)
                s = lo + int(perm[d])
                W[rows, lo + d:lo + end] = V[rows, s:s + end - d]
                d = end

    def t_permute_panel_ref(self, p0: int, p1: int) -> None:
        """Seed (column-at-a-time) implementation of
        :meth:`t_permute_panel`; reference for tests/benchmarks."""
        ctx = self.ctx
        perm = self.defl.perm
        p1 = min(p1, self.n)
        for dest in range(p0, p1):
            rows = self._dest_rows(dest)
            ctx.Vws[rows, self.lo + dest] = ctx.V[rows, self.lo + perm[dest]]

    def permute_rows_moved(self, p0: int, p1: int) -> float:
        """Doubles moved by t_permute_panel (for the cost model)."""
        return float(sum((d1 - d0) * (rows.stop - rows.start)
                         for d0, d1, rows in self._dest_segments(p0, p1)))

    def t_laed4_panel(self, p0: int, p1: int) -> None:
        roots = self.clip_roots(p0, p1)
        if roots.size == 0:
            return
        d = self.defl
        try:
            res = solve_secular(d.dlamda, d.zsec, d.rho, index=roots)
        except Exception as exc:
            # Graceful degradation: flag the merge for the STEQR
            # fallback instead of failing the whole solve.
            self._mark_secular_failure(exc)
            return
        # Per-panel accumulation (distinct keys): reduced by t_reduce_w.
        # Counted before the finiteness check: the sweeps ran.
        self._sweeps[p0] = (res.iterations, res.root_iterations)
        if not (np.isfinite(res.tau).all() and np.isfinite(res.lam).all()):
            self._mark_secular_failure(ConvergenceError(
                f"secular solve produced non-finite roots on merge "
                f"[{self.lo}, {self.hi})"))
            return
        self.orig[roots] = res.orig
        self.tau[roots] = res.tau
        self.lam[roots] = res.lam

    def t_local_w_panel(self, p0: int, p1: int, pid: int) -> None:
        if self.secular_failed:
            # This panel's LAED4 is ordered before us; if it flagged the
            # failure its outputs are unset, so skip the product.
            return
        roots = self.clip_roots(p0, p1)
        if roots.size == 0:
            return
        d = self.defl
        self.wparts[pid] = local_w_product(d.dlamda, self.orig[roots],
                                           self.tau[roots], roots)

    def t_reduce_w(self) -> None:
        # Subset computation at the ROOT merge: every eigenvalue is
        # known here (LAED4 done, deflated values known), so the final
        # rank of each stored column can be computed and the expensive
        # UpdateVect restricted to the wanted ones (the [6] optimization
        # of the last update step; see paper Sec. I).
        ctx = self.ctx
        # All LAED4 panels are ordered before ReduceW (through the
        # ComputeLocalW -> hW GATHERV group), so this reduction is safe
        # and `secular_failed` is final here.
        panels = [self._sweeps[p] for p in sorted(self._sweeps)]
        self.stats.secular_sweeps = sum(sweeps for sweeps, _ in panels)
        if panels:
            self.stats.secular_iterations = np.concatenate(
                [iters for _, iters in panels]).tolist()
        if self.secular_failed:
            return
        if ctx.subset is not None and self.n == ctx.n:
            lam_stored = np.concatenate([self.lam, self.defl.d_defl])
            ranks = np.empty(self.n, dtype=np.intp)
            ranks[np.argsort(lam_stored, kind="stable")] = np.arange(self.n)
            wanted = np.zeros(self.n, dtype=bool)
            wanted[np.isin(ranks, ctx.subset)] = True
            self.wanted_stored = wanted
        if self.k == 0:
            self.zhat = np.zeros(0)
            return
        parts = [self.wparts[pid] for pid in sorted(self.wparts)]
        zhat = reduce_w(parts, self.defl.zsec, self.defl.rho)
        if not np.isfinite(zhat).all():
            self._mark_secular_failure(ConvergenceError(
                f"rank-one update vector is non-finite on merge "
                f"[{self.lo}, {self.hi})"))
            return
        self.zhat = zhat

    def t_copyback_panel(self, p0: int, p1: int) -> None:
        try:
            ctx = self.ctx
            d = self.defl
            lo, hi = self.lo, self.hi
            k = self.k
            a, b = max(p0, k), min(p1, self.n)
            if a >= b:
                return
            ctx.V[lo:hi, lo + a:lo + b] = ctx.Vws[lo:hi, lo + a:lo + b]
            ctx.D[lo + a:lo + b] = d.d_defl[a - k:b - k]
        finally:
            # hV writer countdown (the copies above are redundant when a
            # secular failure was flagged, but skipping them on a flag
            # that may not be final yet would be racy; the fallback
            # rewrite supersedes them either way).
            self._writer_done()

    def t_copyback_panel_ref(self, p0: int, p1: int) -> None:
        """Seed (column-at-a-time) implementation of
        :meth:`t_copyback_panel`; reference for tests/benchmarks."""
        ctx = self.ctx
        d = self.defl
        lo, hi = self.lo, self.hi
        for dest in range(max(p0, self.k), min(p1, self.n)):
            ctx.V[lo:hi, lo + dest] = ctx.Vws[lo:hi, lo + dest]
            ctx.D[lo + dest] = d.d_defl[dest - self.k]

    def copyback_rows_moved(self, p0: int, p1: int) -> float:
        n_cols = max(0, min(p1, self.n) - max(p0, self.k))
        return float(n_cols * self.n)

    def t_compute_vect_panel(self, p0: int, p1: int) -> None:
        if self.secular_failed:
            # Final here: ReduceW (a detection site ordered after every
            # LAED4) precedes all ComputeVect panels; zhat may be unset.
            return
        cols = self.clip_roots(p0, p1)
        if cols.size == 0:
            return
        d = self.defl
        self.X[:, cols] = eigenvector_columns(d.dlamda, self.orig[cols],
                                              self.tau[cols], self.zhat,
                                              row_order=d.rowidx)

    def update_cols(self, p0: int, p1: int) -> np.ndarray:
        """Columns of panel [p0, p1) whose eigenvectors must be formed
        (all non-deflated ones, or only the wanted subset at the root)."""
        cols = self.clip_roots(p0, p1)
        if self.wanted_stored is not None and cols.size:
            cols = cols[self.wanted_stored[cols]]
        return cols

    def t_update_vect_panel(self, p0: int, p1: int) -> None:
        try:
            if self.secular_failed:
                # Final here (every UpdateVect depends on ReduceW and
                # all LAED4 panels): lam/X are unset, the fallback will
                # rewrite the block.
                return
            ctx = self.ctx
            # Eigenvalues are always produced for every panel root (the
            # final ordering needs them), even when the vector is skipped.
            roots = self.clip_roots(p0, p1)
            if roots.size == 0:
                return
            ctx.D[self.lo + roots] = self.lam[roots]
            cols = self.update_cols(p0, p1)
            if cols.size == 0:
                return
            lo, mid, hi = self.lo, self.mid, self.hi
            k1, k2, _ = self.defl.ctot
            k = self.k
            k12 = k1 + k2
            if cols.size == roots.size:
                dst = slice(lo + int(cols[0]), lo + int(cols[-1]) + 1)
                xs: slice | np.ndarray = slice(int(cols[0]),
                                               int(cols[-1]) + 1)
            else:   # subset at the root: possibly non-contiguous columns
                dst = lo + cols
                xs = cols
            if k12:
                ctx.V[lo:mid, dst] = \
                    ctx.Vws[lo:mid, lo:lo + k12] @ self.X[:k12, xs]
            else:
                ctx.V[lo:mid, dst] = 0.0
            if k - k1:
                ctx.V[mid:hi, dst] = \
                    ctx.Vws[mid:hi, lo + k1:lo + k] @ self.X[k1:k, xs]
            else:
                ctx.V[mid:hi, dst] = 0.0
        finally:
            self._writer_done()

    def update_vect_shape(self, p0: int, p1: int) -> tuple[int, int, int, int, int]:
        """(n1, n2, k12, k23, m) for the cost model; m reflects subset
        restriction at the root (the [6] cost saving)."""
        k1, k2, _ = self.defl.ctot
        m = int(self.update_cols(p0, p1).size)
        return (self.n1, self.n - self.n1, k1 + k2, self.k - k1, m)

    # -- boundary-row strip kernels (both modes; see kernels.strips) -------
    def t_givens_strip(self) -> None:
        """Stack the children's boundary rows into the working strip P
        and apply this merge's deflating rotations to it.

        Single task per merge (O(n_node) work): the strip is 2 rows, so
        panelization would be all dispatch overhead.  Depends only on
        hdefl — Compute_deflation already ordered us after every writer
        of the child blocks."""
        ctx = self.ctx
        stack_boundary_rows(ctx.S, ctx.P, self.lo, self.mid, self.hi)
        rotate_strip_columns(ctx.P, self.lo, self.chains)

    def t_permute_strip(self) -> None:
        """Gather the working strip into compressed column order."""
        ctx = self.ctx
        permute_strip(ctx.P, ctx.Pws, self.lo, self.defl.perm)

    def t_strip_update_panel(self, p0: int, p1: int) -> None:
        """Form the merged node's strip columns of panel [p0, p1).

        Non-deflated columns get the two ``row·X`` secular products
        (the strip restriction of UpdateVect's structured GEMM) from a
        *transient* k×m eigenvector panel — never the stored n²-backed
        ``self.X``, so jobz='N' allocates O(k·nb) at peak.  Deflated
        columns are copied from the permuted strip (the CopyBackDeflated
        restriction).  In jobz='N' this panel is also the eigenvalue
        writer (lam for roots, d_defl for deflated); in jobz='V' the
        classic kernels own D and this writes the strip only."""
        try:
            if self.secular_failed:
                # Final here (ordered after ReduceW and all LAED4).
                return
            ctx = self.ctx
            d = self.defl
            lo = self.lo
            k = self.k
            n_node = self.n
            eig_only = ctx.V is None
            a, b = max(p0, k), min(p1, n_node)
            if a < b:
                ctx.S[:, lo + a:lo + b] = ctx.Pws[:, lo + a:lo + b]
                if eig_only:
                    ctx.D[lo + a:lo + b] = d.d_defl[a - k:b - k]
            roots = self.clip_roots(p0, p1)
            if roots.size == 0:
                return
            if eig_only:
                ctx.D[lo + roots] = self.lam[roots]
            # Strips feed the *parent's* z, so no subset restriction —
            # every non-deflated column is formed.
            k1, k2, _ = d.ctot
            k12 = k1 + k2
            Xp = eigenvector_columns(d.dlamda, self.orig[roots],
                                     self.tau[roots], self.zhat,
                                     row_order=d.rowidx)
            top, bot = strip_row_products(ctx.Pws[0, lo:lo + k12],
                                          ctx.Pws[1, lo + k1:lo + k],
                                          Xp, k1)
            dst = slice(lo + int(roots[0]), lo + int(roots[-1]) + 1)
            ctx.S[0, dst] = top
            ctx.S[1, dst] = bot
        finally:
            self._writer_done()

    def t_update_eig_panel(self, p0: int, p1: int) -> None:
        """jobz='N' root merge: write the eigenvalues of panel [p0, p1)
        (lam for secular roots, d_defl for deflated columns) — no strip
        products, the root's strip has no consumer."""
        try:
            if self.secular_failed:
                return
            ctx = self.ctx
            d = self.defl
            lo = self.lo
            k = self.k
            a, b = max(p0, k), min(p1, self.n)
            if a < b:
                ctx.D[lo + a:lo + b] = d.d_defl[a - k:b - k]
            roots = self.clip_roots(p0, p1)
            if roots.size:
                ctx.D[lo + roots] = self.lam[roots]
        finally:
            self._writer_done()

    def strip_rotations(self) -> int:
        """Rotation count for the GivensStrip cost model."""
        return sum(len(c) for c in self.chains)
