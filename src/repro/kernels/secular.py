"""Secular-equation solver (DLAED4 equivalent), vectorized over roots.

Given the deflated rank-one system ``R = D + rho * z zᵀ`` with
``d_0 < d_1 < ... < d_{k-1}`` and ``‖z‖ = 1``, the eigenvalues are the
roots of the secular equation (paper Eq. 7)::

    w(λ) = 1 + rho * Σ_i  z_i² / (d_i − λ) = 0

with the interlacing property ``d_j < λ_j < d_{j+1}`` (and
``d_{k-1} < λ_{k-1} < d_{k-1} + rho``).

Each root is represented as ``λ_j = d_{orig_j} + τ_j`` where ``orig_j``
is the index of the *closest pole*; all pole distances are formed as
``(d_i − d_orig) − τ`` so the critical distance to the nearest pole is
the exactly-stored ``τ`` — this is what preserves eigenvector
orthogonality downstream (Gu & Eisenstat).

The iteration is the fixed-weight two-pole rational scheme
(Bunch–Nielsen–Sorensen; the same family as DLAED4's middle way): model
``w`` by ``c + a/(Δ_1 − η) + b/(Δ_2 − η)`` with the true residues
``a = rho z_{p1}²``, ``b = rho z_{p2}²`` of the two bracketing poles and
``c`` chosen to interpolate the current value, then step to the model
root.  A per-root bisection bracket makes the scheme globally
convergent.  All roots of a panel iterate simultaneously with NumPy
(this is the paper's per-panel ``LAED4`` task, vectorized inside the
panel).

The work is root-major: row j of an m×k buffer holds root j's pole
distances, and every sum over the poles is a contiguous row contraction
``np.einsum("jk,k->j", rows, z²)``.  Each root's sums therefore see the
same operations in the same order whichever roots share its panel, so
``orig``/``tau`` are bitwise independent of how a merge splits its roots
into panels.  The two m×k buffers and the origin-relative poles
``d_i − d_orig`` are made once per call; a sweep writes and reduces them
in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError

__all__ = ["SecularRoots", "solve_secular", "secular_function",
           "delta_matrix", "eigenvalues_from_roots"]

_EPS = np.finfo(np.float64).eps


@dataclass
class SecularRoots:
    """Roots of the secular equation in stable (origin, offset) form.

    ``lam[j] == dlamda[orig[j]] + tau[j]`` (also materialized in ``lam``
    for convenience; downstream kernels must use ``orig``/``tau``).
    """

    orig: np.ndarray   # (m,) int — index of the closest pole
    tau: np.ndarray    # (m,) float — offset from that pole
    lam: np.ndarray    # (m,) float — materialized eigenvalues
    iterations: int    # total sweeps used (diagnostics / Table I)
    root_iterations: np.ndarray   # (m,) int — sweeps each root took


def secular_function(dlamda: np.ndarray, z: np.ndarray, rho: float,
                     lam: np.ndarray) -> np.ndarray:
    """Evaluate w(λ) naively (for tests/diagnostics only)."""
    delta = dlamda[:, None] - np.atleast_1d(lam)[None, :]
    return 1.0 + rho * np.sum((z * z)[:, None] / delta, axis=0)


def delta_matrix(dlamda: np.ndarray, orig: np.ndarray, tau: np.ndarray
                 ) -> np.ndarray:
    """Stable pole distances ``Δ[i, j] = d_i − λ_j`` of shape (k, m).

    Formed as ``(d_i − d_orig_j) − τ_j`` so that ``Δ[orig_j, j] = −τ_j``
    exactly.
    """
    return (dlamda[:, None] - dlamda[orig][None, :]) - tau[None, :]


def eigenvalues_from_roots(dlamda: np.ndarray, orig: np.ndarray,
                           tau: np.ndarray) -> np.ndarray:
    return dlamda[orig] + tau


def solve_secular(dlamda: np.ndarray, z: np.ndarray, rho: float,
                  index: np.ndarray | None = None,
                  max_iter: int = 400) -> SecularRoots:
    """Solve the secular equation for the roots listed in ``index``.

    Parameters
    ----------
    dlamda : (k,) strictly increasing poles (deflation guarantees gaps).
    z : (k,) unit-norm updating vector (every entry nonzero).
    rho : positive rank-one weight.
    index : root indices to solve (default: all k roots).  One LAED4
        panel task passes the root indices of its panel.  A root's
        ``orig``/``tau`` are bitwise the same whatever other roots
        ``index`` lists.

    The result counts the panel's sweeps (``iterations``) and the sweeps
    each root stayed active for (``root_iterations``): the per-root
    LAED4 iteration counts of the solve's telemetry.
    """
    dlamda = np.asarray(dlamda, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    k = dlamda.shape[0]
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if k == 0:
        e = np.empty(0)
        return SecularRoots(e.astype(int), e, e, 0, e.astype(np.int64))
    if index is None:
        index = np.arange(k)
    js = np.asarray(index, dtype=np.intp)
    m = js.shape[0]
    zsq = z * z

    if k == 1:
        lam = dlamda[0] + rho * zsq[0]
        orig = np.zeros(m, dtype=np.intp)
        tau = np.full(m, rho * zsq[0])
        return SecularRoots(orig, tau, np.full(m, lam), 0,
                            np.zeros(m, dtype=np.int64))

    interior = js < k - 1
    right_pole = np.where(interior, js + 1, js)           # d_{j+1} or d_{k-1}
    gap = np.where(interior, dlamda[np.minimum(js + 1, k - 1)] - dlamda[js],
                   rho)

    # --- choose the origin pole by the sign of w at the interval midpoint
    mid = np.where(interior, dlamda[js] + 0.5 * gap, dlamda[k - 1] + 0.5 * rho)
    buf = np.empty((m, k))          # Δ, then 1/Δ, then sign(Δ)/Δ²
    absbuf = np.empty((m, k))       # 1/|Δ|, then 1/Δ²
    inv = np.subtract(dlamda[None, :], mid[:, None], out=buf)
    np.reciprocal(inv, out=inv)
    w_mid = 1.0 + rho * np.einsum("jk,k->j", inv, zsq)

    # w increases from -inf to +inf across the interval; w(mid) >= 0 means
    # the root lies in the left half, i.e. closer to the left pole.
    left_half = w_mid >= 0.0
    orig = np.where(interior & ~left_half, right_pole, js)
    # Last root: origin is always d_{k-1}.
    orig = np.where(interior, orig, js)

    # --- initial bracket (lo, hi) and guess in τ = λ − d_orig coordinates
    lo = np.empty(m)
    hi = np.empty(m)
    # interior, left half:   τ ∈ (0, gap/2]
    # interior, right half:  τ ∈ [−gap/2, 0)
    # last, left half:       τ ∈ (0, ρ/2]
    # last, right half:      τ ∈ [ρ/2, ρ)
    last = ~interior
    lo[interior & left_half] = 0.0
    hi[interior & left_half] = 0.5 * gap[interior & left_half]
    lo[interior & ~left_half] = -0.5 * gap[interior & ~left_half]
    hi[interior & ~left_half] = 0.0
    lo[last & left_half] = 0.0
    hi[last & left_half] = 0.5 * rho
    lo[last & ~left_half] = 0.5 * rho
    hi[last & ~left_half] = rho
    tau = 0.5 * (lo + hi)
    # Keep strictly inside the open side of the bracket.
    tau = np.where(tau == 0.0, 0.25 * (hi - lo) + lo, tau)

    # --- model poles: the two poles bracketing the interval
    p1 = np.where(interior, js, k - 2)
    p2 = np.where(interior, np.minimum(js + 1, k - 1), k - 1)

    # Origin-relative poles d_i − d_orig_j, one row per root; orig is
    # fixed from here on, so every sweep's Δ = base − τ starts from it.
    base = dlamda[None, :] - dlamda[orig][:, None]

    active = np.ones(m, dtype=bool)
    total_sweeps = 0
    iters = np.zeros(m, dtype=np.int64)     # per-root sweep counts
    for sweep in range(max_iter):
        ia = np.flatnonzero(active)
        if ia.size == 0:
            break
        total_sweeps += 1
        iters[ia] += 1
        ta = tau[ia]
        rows = np.arange(ia.size)
        delta = buf[:ia.size]
        if ia.size == m:
            np.subtract(base, ta[:, None], out=delta)
        else:
            np.take(base, ia, axis=0, out=delta, mode="clip")
            delta -= ta[:, None]
        d1 = delta[rows, p1[ia]]
        d2 = delta[rows, p2[ia]]
        inv = np.reciprocal(delta, out=delta)
        ainv = np.abs(inv, out=absbuf[:ia.size])
        # ψ collects the poles at or left of p1, φ the poles right of it.
        # For interior roots p1 = j and λ ∈ (d_j, d_{j+1}), so the split
        # coincides with the sign of Δ: ψ gathers the negative terms, φ
        # the positive ones — recoverable from the plain and absolute
        # sums without an O(k·m) cumulative sum.  For the last root every
        # Δ is negative; its φ is the single pole d_{k-1}, handled
        # explicitly below.
        w = 1.0 + rho * np.einsum("jk,k->j", inv, zsq)
        swabs = rho * np.einsum("jk,k->j", ainv, zsq)
        tol_w = _EPS * k * (3.0 + swabs)

        # Update brackets from the sign of w.
        pos = w > 0.0
        hi[ia] = np.where(pos, np.minimum(hi[ia], ta), hi[ia])
        lo[ia] = np.where(~pos, np.maximum(lo[ia], ta), lo[ia])

        converged = np.abs(w) <= tol_w
        # Secondary stop: bracket collapsed *relative to τ*.  lo and hi
        # carry the sign of τ (the bracket never straddles the pole), so
        # this enforces high relative accuracy of τ — which the Gu
        # stabilization downstream needs to keep eigenvectors accurate.
        width = hi[ia] - lo[ia]
        converged |= width <= 8.0 * _EPS * np.abs(ta)
        if np.all(converged):
            active[ia] = False
            break

        # "Middle way" two-pole step (Ren-Cang Li / DLAED4): split the sum
        # at the left model pole into ψ (poles ≤ p1) and φ (poles > p1),
        # and give each model pole the weight that matches the exact
        # derivative of its side: a = Δ1²ψ', b = Δ2²φ', c = w − Δ1ψ' − Δ2φ'.
        inv *= ainv                          # sign(Δ) / Δ²
        ainv *= ainv                         # 1 / Δ² (all positive)
        C = rho * np.einsum("jk,k->j", inv, zsq)       # φ' − ψ'
        B = rho * np.einsum("jk,k->j", ainv, zsq)      # w'(λ) = ψ' + φ'
        psi_p = 0.5 * (B - C)                               # ψ'(λ) ≥ 0
        phi_p = 0.5 * (B + C)                               # φ'(λ) ≥ 0
        inter_a = interior[ia]
        if not np.all(inter_a):
            # Last root: φ is the single pole d_{k-1} (= p2 = origin).
            la = ~inter_a
            phi_last = rho * zsq[k - 1] / (d2[la] * d2[la])
            phi_p[la] = phi_last
            psi_p[la] = B[la] - phi_last
        aa = d1 * d1 * psi_p
        bb = d2 * d2 * phi_p
        c = w - d1 * psi_p - d2 * phi_p
        # Quadratic  c η² − B η + C = 0 for the step η.
        B = c * (d1 + d2) + aa + bb
        C = c * d1 * d2 + aa * d2 + bb * d1
        disc = B * B - 4.0 * c * C
        disc = np.maximum(disc, 0.0)
        sq = np.sqrt(disc)
        denom = B + np.where(B >= 0.0, sq, -sq)
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = np.where(denom != 0.0, 2.0 * C / denom, 0.0)
        tnew = ta + eta
        # Safeguard: keep strictly inside the bracket, else bisect.
        bad = (~np.isfinite(tnew)) | (tnew <= lo[ia]) | (tnew >= hi[ia]) \
            | (eta == 0.0)
        # A step of exactly zero with |w|>tol means the model stalled.
        tnew = np.where(bad, 0.5 * (lo[ia] + hi[ia]), tnew)
        # Never land exactly on the origin pole.
        tnew = np.where(tnew == 0.0, 0.5 * (lo[ia] + hi[ia]) * 0.5
                        + 0.25 * hi[ia], tnew)
        tau[ia] = np.where(converged, ta, tnew)
        keep = ~converged
        active[ia] = keep

    if np.any(active):
        stuck = js[np.where(active)[0]]
        raise ConvergenceError(
            f"secular solve did not converge for root(s) "
            f"{stuck[:8].tolist()} after {max_iter} sweeps "
            f"(k={k}, rho={rho:.3e})")
    return SecularRoots(orig.astype(np.intp), tau,
                        eigenvalues_from_roots(dlamda, orig, tau),
                        total_sweeps, iters)
