"""MRRR tridiagonal eigensolver (MR³-SMP equivalent, the paper's Fig. 8
comparison point).

Algorithm (Dhillon's MR³, as in LAPACK dstemr / MR³-SMP):

1. split T into unreduced blocks at negligible off-diagonals;
2. per block: initial eigenvalues by Sturm bisection, root RRR
   ``T − σ₀I = L D Lᵀ`` with σ₀ outside the spectrum;
3. walk the representation tree: eigenvalues with a large *relative* gap
   are singletons — refine to full relative accuracy and compute the
   eigenvector by twisted factorization; clusters are shifted close to
   the cluster (new RRR via dstqds) so the relative gaps inside open up,
   and recursed on;
4. pathological clusters (exact duplicates / depth cap / element growth)
   fall back to inverse iteration with modified Gram-Schmidt — the slow
   path that makes MRRR lose on matrices like Table III type 2, exactly
   as the paper reports.

Every piece of work is also recorded as a :class:`WorkRecord` so the
discrete-event machine can replay the (matrix-dependent) task tree of an
MR³-SMP-style dynamic scheduler — used by the Fig. 8 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels.scaling import scale_tridiagonal
from ..runtime.task import TaskCost
from .bisect import bisect_ldl, bisect_ldl_multi, gershgorin
from .ldl import LDL, dstqds, ldl_factor
from .twisted import getvec_batch

__all__ = ["mrrr_eigh", "MRRRResult", "WorkRecord"]

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


@dataclass
class WorkRecord:
    """One unit of MRRR work for the simulated task replay."""

    uid: int
    name: str             # Factor / RefineInit / Refine / Getvec / ClusterShift / ClusterBI
    cost: TaskCost
    parent: int           # uid of the prerequisite record (-1 = none)


@dataclass
class MRRRResult:
    lam: np.ndarray
    V: np.ndarray
    records: list[WorkRecord] = field(default_factory=list)
    n_clusters: int = 0
    n_fallbacks: int = 0
    n_reorth_groups: int = 0
    max_depth: int = 0


class _Recorder:
    def __init__(self) -> None:
        self.records: list[WorkRecord] = []

    def add(self, name: str, cost: TaskCost, parent: int = -1) -> int:
        uid = len(self.records)
        self.records.append(WorkRecord(uid, name, cost, parent))
        return uid


def _split_blocks(d: np.ndarray, e: np.ndarray) -> list[tuple[int, int]]:
    """Unreduced blocks: split where |e_i| is negligible (dlarra)."""
    n = d.shape[0]
    blocks = []
    lo = 0
    for i in range(n - 1):
        if abs(e[i]) <= _EPS * (abs(d[i]) + abs(d[i + 1])):
            blocks.append((lo, i + 1))
            lo = i + 1
    blocks.append((lo, n))
    return blocks


def _tridiag_solve_shifted(d: np.ndarray, e: np.ndarray, sigma: float,
                           b: np.ndarray) -> np.ndarray:
    """Solve (T − σI) x = b by LU with partial pivoting (dgtsv-style)."""
    n = d.shape[0]
    dl = e.copy() if n > 1 else np.empty(0)
    du = e.copy() if n > 1 else np.empty(0)
    dd = d - sigma
    du2 = np.zeros(max(0, n - 2))
    x = b.copy()
    dd = dd.copy()
    for i in range(n - 1):
        if abs(dd[i]) >= abs(dl[i]):
            piv = dd[i] if dd[i] != 0.0 else _TINY
            m = dl[i] / piv
            dd[i + 1] -= m * du[i]
            x[i + 1] -= m * x[i]
            dl[i] = 0.0  # marker: no swap
        else:
            m = dd[i] / dl[i]
            dd[i], dl[i] = dl[i], m
            du[i], dd[i + 1] = dd[i + 1], du[i] - m * dd[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -m * du[i + 1]
            x[i], x[i + 1] = x[i + 1], x[i] - m * x[i + 1]
            dl[i] = 1.0  # marker: swapped
    # Back substitution (du2 holds the second superdiagonal fill-in).
    piv = dd[n - 1] if dd[n - 1] != 0.0 else _TINY
    x[n - 1] /= piv
    if n > 1:
        piv = dd[n - 2] if dd[n - 2] != 0.0 else _TINY
        x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / piv
    for i in range(n - 3, -1, -1):
        piv = dd[i] if dd[i] != 0.0 else _TINY
        x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / piv
    return x


def _cluster_fallback(rep: LDL, lams_rep: np.ndarray,
                      V: np.ndarray, cols: np.ndarray) -> None:
    """Inverse iteration + MGS for a pathological cluster (BI path).

    Runs against the *representation* tridiagonal ``LDLᵀ`` with
    rep-relative eigenvalues: after the cluster shifts, ‖LDLᵀ‖ is of the
    order of the cluster's own scale, so inverse iteration retains the
    relative accuracy that plain BI on the original matrix would lose.
    """
    d, e = rep.to_tridiagonal()
    lams = lams_rep
    n = d.shape[0]
    scale = max(np.max(np.abs(d)), np.max(np.abs(e)) if e.size else 0.0,
                _TINY)
    rng = np.random.default_rng(len(cols) * 7919 + n)
    done: list[np.ndarray] = []
    for j, col in enumerate(cols):
        # Perturb duplicates so the shifted systems stay non-singular.
        sig = lams[j] + (j + 1) * 4.0 * _EPS * scale
        x = rng.normal(size=n)
        for _ in range(3):
            x = _tridiag_solve_shifted(d, e, sig, x)
            # Twice-is-enough reorthogonalization: after the solve the
            # component along earlier vectors dominates by ~1/ε, so a
            # single Gram-Schmidt sweep leaves O(ε/η) contamination.
            for _sweep in range(2):
                for q in done:
                    x -= np.dot(q, x) * q
            nrm = np.linalg.norm(x)
            if nrm == 0.0 or not np.isfinite(nrm):
                x = rng.normal(size=n)
                nrm = np.linalg.norm(x)
            x /= nrm
        done.append(x)
        V[:, col] = x


def _reorth_noise_groups(d: np.ndarray, e: np.ndarray, lam: np.ndarray,
                         V: np.ndarray, offset: int, rec: _Recorder,
                         result: MRRRResult) -> None:
    """Safety net: modified Gram-Schmidt inside groups of eigenvalues
    whose separations are below the noise level ``c·n·ε·‖T‖``.

    Eigenvalues that close are numerically multiple — any orthonormal
    basis of their joint eigenspace is correct, but vectors computed
    from *different* representations may lose mutual orthogonality.
    MGS preserves the span (hence the residual up to the group width)
    and restores orthogonality; the O(n·c²) cost per group is charged
    to the work records, reproducing MRRR's characteristic slowness on
    heavily clustered spectra (paper Fig. 8, types 1/2).
    """
    n = lam.shape[0]
    if n < 2:
        return
    nrm = max(float(np.max(np.abs(d))),
              float(np.max(np.abs(e))) if e.size else 0.0, _TINY)
    tol = 64.0 * _EPS * nrm
    order = np.argsort(lam, kind="stable")
    lam_sorted = lam[order]
    start = 0
    for i in range(1, n + 1):
        if i < n and lam_sorted[i] - lam_sorted[i - 1] <= tol:
            continue
        if i - start > 1:
            nb = d.shape[0]
            rows = slice(offset, offset + nb)
            cols = offset + order[start:i]
            # Skip columns never computed (subset runs leave them zero).
            computed = np.linalg.norm(V[rows, :][:, cols], axis=0) > 0.5
            cols = cols[computed]
            if cols.size < 2:
                start = i
                continue
            block = V[rows, :][:, cols]
            c = cols.size
            gram = block.T @ block - np.eye(c)
            if np.max(np.abs(gram)) > 1e-11:
                # Regenerate the whole group by inverse iteration,
                # orthogonalizing against accepted group members and
                # against neighbors within dstein's ortol radius.
                center = 0.5 * (lam_sorted[start] + lam_sorted[i - 1])
                near = np.where(np.abs(lam - center) <= 1e-3 * nrm)[0]
                near = near[~np.isin(near, order[start:i])]
                done: list[np.ndarray] = [V[rows, offset + q].copy()
                                          for q in near]
                rng = np.random.default_rng(int(cols[0]) * 31 + c)
                for j, col in enumerate(cols):
                    sig = float(lam_sorted[start + j]) \
                        + ((j % 8) + 1) * _EPS * nrm
                    x = rng.normal(size=nb)
                    for _ in range(3):
                        x = _tridiag_solve_shifted(d, e, sig, x)
                        for _sweep in range(2):
                            for q in done:
                                x -= np.dot(q, x) * q
                        nv = np.linalg.norm(x)
                        if nv == 0.0 or not np.isfinite(nv):
                            x = rng.normal(size=nb)
                            nv = np.linalg.norm(x)
                        x /= nv
                    done.append(x)
                    V[rows, col] = x
                rec.add("Reorth",
                        TaskCost(flops=(24.0 + 4.0 * len(done)) * nb * c))
                result.n_reorth_groups += 1
        start = i


def _process_block(d: np.ndarray, e: np.ndarray, V: np.ndarray,
                   lam_out: np.ndarray, offset: int, rec: _Recorder,
                   gaptol: float, maxdepth: int,
                   result: MRRRResult,
                   wanted: np.ndarray | None = None) -> None:
    n = d.shape[0]
    if n == 1:
        lam_out[offset] = d[0]
        V[offset, offset] = 1.0
        return
    if wanted is None:
        wanted = np.ones(n, dtype=bool)
    gl, gu = gershgorin(d, e)
    spdiam = max(gu - gl, _TINY)

    root_id = rec.add("Factor", TaskCost(flops=10.0 * n))

    # Root representation: definite shift just below the spectrum.
    sigma0 = gl - 1e-3 * spdiam
    rep0 = ldl_factor(d, e, sigma0)
    # Eigenvalues of the root representation to full *relative* accuracy
    # (classification into singletons/clusters and the duplicate test
    # are meaningless at any coarser precision).
    lam_rep = bisect_ldl(rep0.d, rep0.l, np.arange(n),
                         np.zeros(n),
                         np.full(n, (gu - sigma0) * (1.0 + 1e-6)),
                         rtol=4.0 * _EPS)
    # MR3-SMP parallelizes the initial bisection over eigenvalue chunks;
    # record it that way so the replayed schedule can too.
    chunk = 32
    rec_init = root_id
    for lo_c in range(0, n, chunk):
        m_c = min(chunk, n - lo_c)
        rec_init = rec.add("RefineInit",
                           TaskCost(flops=5.0 * 60 * n * m_c),
                           parent=root_id)

    Vb = V[offset:offset + n, :]

    # Work stack: (rep, λ's w.r.t. rep, global indices, lgap, rgap, depth, parent record)
    stack = [(rep0, lam_rep, np.arange(n), spdiam, spdiam, 0, rec_init)]
    while stack:
        rep, lam, idx, lgap0, rgap0, depth, parent = stack.pop()
        result.max_depth = max(result.max_depth, depth)
        m = lam.shape[0]
        # Separations between consecutive eigenvalues (absolute), with
        # the inherited boundary gaps at the ends.
        sep = np.empty(m + 1)
        sep[0] = lgap0
        sep[m] = rgap0
        if m > 1:
            sep[1:m] = np.maximum(lam[1:] - lam[:-1], 0.0)
        # Relative separation: a boundary splits two eigenvalues when the
        # gap is large relative to the magnitudes (w.r.t. this rep).
        mag = np.maximum(np.abs(lam), _EPS * spdiam)
        is_split = np.ones(m + 1, dtype=bool)
        if m > 1:
            is_split[1:m] = sep[1:m] >= gaptol * np.maximum(mag[:-1], mag[1:])
        # Group into maximal runs.
        a = 0
        groups = []
        for b in range(1, m + 1):
            if is_split[b]:
                groups.append((a, b))
                a = b
        singles: list[tuple[int, float, float, float]] = []
        jobs: list[tuple] = []
        for (a, b) in groups:
            # Absolute gaps to the neighbors outside the group.
            lg = float(sep[a])
            rg = float(sep[b])
            if b - a == 1:
                if wanted[idx[a]]:
                    singles.append((a, float(lam[a]), lg, rg))
                else:
                    # Subset computation: the eigenvalue is already
                    # refined to full relative accuracy w.r.t. this
                    # representation — record it and skip the vector.
                    lam_out[offset + idx[a]] = lam[a] + rep.sigma
            elif not np.any(wanted[idx[a:b]]):
                # Entire cluster unwanted: no shift, no recursion —
                # this is MRRR's Θ(nk) subset advantage (paper Sec. I).
                lam_out[offset + idx[a:b]] = lam[a:b] + rep.sigma
            else:
                job = _prepare_cluster(rep, lam[a:b], idx[a:b], lg, rg,
                                       depth, Vb, lam_out, offset, rec,
                                       parent, spdiam, maxdepth, result)
                if job is not None:
                    jobs.append(job)
        if jobs:
            # Refine the eigenvalues of ALL sibling clusters in one
            # multi-representation bisection (each cluster has its own
            # shifted RRR; columns are independent).
            ncols = sum(j[2].shape[0] for j in jobs)
            nn = rep.n
            dmat = np.empty((nn, ncols))
            lmat = np.empty((max(0, nn - 1), ncols))
            loa = np.empty(ncols)
            hia = np.empty(ncols)
            idxs = np.empty(ncols, dtype=np.int64)
            pos = 0
            for (new_rep, shift, gidx, lo_j, hi_j, li_j, lg, rg, rid) in jobs:
                c = gidx.shape[0]
                dmat[:, pos:pos + c] = new_rep.d[:, None]
                lmat[:, pos:pos + c] = new_rep.l[:, None]
                loa[pos:pos + c] = lo_j
                hia[pos:pos + c] = hi_j
                idxs[pos:pos + c] = li_j
                pos += c
            refined_all = bisect_ldl_multi(dmat, lmat, idxs, loa, hia)
            pos = 0
            for (new_rep, shift, gidx, lo_j, hi_j, li_j, lg, rg, rid) in jobs:
                c = gidx.shape[0]
                refined = refined_all[pos:pos + c]
                pos += c
                stack.append((new_rep, refined, gidx, lg, rg,
                              depth + 1, rid))
        if singles:
            _do_singletons(rep, singles, idx, Vb, lam_out, offset, rec,
                           parent, spdiam)


def _do_singletons(rep: LDL, singles: list[tuple[int, float, float, float]],
                   idx: np.ndarray, Vb: np.ndarray, lam_out: np.ndarray,
                   offset: int, rec: _Recorder, parent: int,
                   spdiam: float) -> None:
    """Refine + twisted-factorization vectors for all singletons of an
    item, vectorized over the whole batch."""
    from .bisect import sturm_count_ldl
    n = rep.n
    m = len(singles)
    pos = np.array([s[0] for s in singles])
    lams = np.array([s[1] for s in singles])
    lgaps = np.array([s[2] for s in singles])
    rgaps = np.array([s[3] for s in singles])
    gaps = np.maximum(np.minimum(lgaps, rgaps),
                      4.0 * _EPS * np.maximum(np.abs(lams), spdiam))
    # Final precision comes from the vectorized Rayleigh-quotient loop
    # inside getvec_batch (replaces a last bisection refinement).
    Z, lam_fin, _resid = getvec_batch(rep, lams, gaps)
    cols = offset + idx[pos]
    Vb[:, cols] = Z
    lam_out[cols] = lam_fin + rep.sigma
    for _ in range(m):
        rec.add("Getvec", TaskCost(flops=42.0 * n + 5.0 * 30 * n),
                parent=parent)


def _prepare_cluster(rep: LDL, lam: np.ndarray,
                     idx: np.ndarray, lgap: float, rgap: float, depth: int,
                     Vb: np.ndarray, lam_out: np.ndarray, offset: int,
                     rec: _Recorder, parent: int, spdiam: float,
                     maxdepth: int, result: MRRRResult):
    """Handle one cluster: either resolve it by the inverse-iteration
    fallback (returns None) or build its shifted representation and
    return a refinement job ``(new_rep, shift, idx, lo, hi, local_idx,
    lgap, rgap, record_id)`` for the caller's batched bisection."""
    n = rep.n
    c = lam.shape[0]
    width = float(lam[-1] - lam[0])
    result.n_clusters += 1
    # A cluster is a numerically multiple eigenvalue when its width is a
    # few ulps of either the representation-relative value or of the
    # eigenvalue's magnitude in the ORIGINAL matrix (differences at that
    # level are rounding noise and must not be split across
    # representations — any orthonormal basis of the eigenspace is
    # correct, so use the inverse-iteration fallback).
    lam_abs = max(abs(lam[0] + rep.sigma), abs(lam[-1] + rep.sigma))
    tiny_width = (width <= 8.0 * _EPS * max(abs(lam[0]), abs(lam[-1]))
                  or width <= 32.0 * _EPS * lam_abs)
    if depth >= maxdepth or tiny_width:
        # Pathological cluster: inverse-iteration fallback (the expensive
        # path; cost grows with cluster size squared).
        result.n_fallbacks += 1
        _cluster_fallback(rep, lam, Vb, offset + idx)
        lam_out[offset + idx] = lam + rep.sigma
        rec.add("ClusterBI", TaskCost(flops=8.0 * n * c + 2.0 * n * c * c),
                parent=parent)
        return None
    # Shift just outside the cluster on the side with the larger gap
    # (dlarrf), then refine the cluster eigenvalues w.r.t. the new rep.
    candidates = []
    delta = max(width * 0.25, 2.0 * _EPS * max(abs(lam[0]), abs(lam[-1])))
    if lgap >= rgap:
        candidates = [lam[0] - delta, lam[-1] + delta,
                      lam[0] - 4 * delta, lam[-1] + 4 * delta]
    else:
        candidates = [lam[-1] + delta, lam[0] - delta,
                      lam[-1] + 4 * delta, lam[0] - 4 * delta]
    new_rep = None
    for sig in candidates:
        cand, _ = dstqds(rep, sig)
        if np.all(np.isfinite(cand.d)) and np.all(np.isfinite(cand.l)):
            # Element growth: reject only absurd representations (the
            # twisted factorization tolerates large but finite growth).
            growth = np.max(np.abs(cand.d))
            if growth <= spdiam / _EPS:
                new_rep = cand
                shift = sig
                break
    if new_rep is None:
        result.n_fallbacks += 1
        _cluster_fallback(rep, lam, Vb, offset + idx)
        lam_out[offset + idx] = lam + rep.sigma
        rec.add("ClusterBI", TaskCost(flops=8.0 * n * c + 2.0 * n * c * c),
                parent=parent)
        return None
    # Brackets around the whole cluster in the new representation's
    # coordinates; full relative accuracy is obtained by the caller's
    # batched multi-representation bisection.
    from .bisect import sturm_count_ldl
    lo_edge = lam[0] - shift - 0.5 * lgap
    hi_edge = lam[-1] - shift + 0.5 * rgap
    base = int(sturm_count_ldl(new_rep.d, new_rep.l,
                               np.array([lo_edge]))[0])
    local_idx = base + np.arange(c)
    # The dstqds factorization is serial, but refining the cluster's c
    # eigenvalues against the new representation parallelizes over
    # eigenvalue chunks (as in MR3-SMP) — record it that way.
    shift_id = rec.add("ClusterShift", TaskCost(flops=10.0 * n),
                       parent=parent)
    rid = shift_id
    for lo_c in range(0, c, 32):
        m_c = min(32, c - lo_c)
        rid = rec.add("Refine", TaskCost(flops=5.0 * 50 * n * m_c),
                      parent=shift_id)
    # Boundary gaps are absolute distances, invariant under the shift.
    return (new_rep, shift, idx, np.full(c, lo_edge), np.full(c, hi_edge),
            local_idx, lgap, rgap, rid)


def mrrr_eigh(d: np.ndarray, e: np.ndarray, *, gaptol: float = 1e-3,
              maxdepth: int = 3,
              subset: np.ndarray | None = None,
              full_result: bool = False):
    """All (or a subset of) eigenpairs of the tridiagonal (d, e) by MRRR.

    ``subset`` selects eigenpair indices (0-based ranks in ascending
    order).  Subset computation is MRRR's traditional strength (paper
    Sec. I: complexity Θ(nk) for k eigenpairs): clusters containing no
    wanted eigenvalue are never shifted or recursed on, and unwanted
    singleton vectors are never formed.  Eigenvalues are computed for
    the whole spectrum either way (they are needed for the gap
    classification); ``lam``/``V`` are returned for ``subset`` only.

    Returns ``(lam, V)`` ascending, or an :class:`MRRRResult` with the
    work-record task tree when ``full_result=True``.
    """
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    n = d.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    if e.shape[0] != max(0, n - 1):
        raise ValueError("e must have length n-1")
    if subset is not None:
        subset = np.unique(np.asarray(subset, dtype=np.intp))
        if subset.size == 0 or subset[0] < 0 or subset[-1] >= n:
            raise ValueError("subset indices out of range")
    ds, es, scale = scale_tridiagonal(d, e)
    result = MRRRResult(lam=np.zeros(n), V=np.zeros((n, n), order="F"))
    rec = _Recorder()
    wanted_mask = None
    if subset is not None:
        # Map global eigenvalue ranks to per-block positions.  With one
        # unreduced block the ranks ARE the block positions; with
        # several, the merged ordering is resolved by a cheap bisection
        # pass per block before marking the wanted entries.
        blocks = _split_blocks(ds, es)
        wanted_mask = np.zeros(n, dtype=bool)
        if len(blocks) == 1:
            wanted_mask[subset] = True
        else:
            from .bisect import bisect_eigenvalues
            all_lam = np.empty(n)
            for (lo, hi) in blocks:
                eb = es[lo:hi - 1] if hi - lo > 1 else np.empty(0)
                all_lam[lo:hi] = bisect_eigenvalues(ds[lo:hi], eb,
                                                    rtol=1e-10)
            order0 = np.argsort(all_lam, kind="stable")
            wanted_mask[order0[subset]] = True
    for (lo, hi) in _split_blocks(ds, es):
        eb = es[lo:hi - 1] if hi - lo > 1 else np.empty(0)
        _process_block(ds[lo:hi], eb, result.V, result.lam, lo, rec,
                       gaptol, maxdepth, result,
                       wanted=None if wanted_mask is None
                       else wanted_mask[lo:hi])
        _reorth_noise_groups(ds[lo:hi], eb, result.lam[lo:hi], result.V,
                             lo, rec, result)
    scale.unscale_eigenvalues(result.lam)
    order = np.argsort(result.lam, kind="stable")
    result.lam = result.lam[order]
    result.V = result.V[:, order]
    if subset is not None:
        result.lam = result.lam[subset]
        result.V = result.V[:, subset]
    result.records = rec.records
    if full_result:
        return result
    return result.lam, result.V
