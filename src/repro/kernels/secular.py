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
orthogonality downstream (Gu & Eisenstat).  The origin is the pole on
the root's side of its interval's midpoint, read off the sign of ``w``
there.  Like dlaed4, the midpoint's pole distances are formed relative
to ``d_j``, as ``(d_i − d_j) − gap/2``: a midpoint rounded to an
absolute float, ``fl(d_j + gap/2)``, can land on the far side of a
root within half an ulp of ``|d_j|`` of the exact midpoint and give it
the far pole.

The iteration is DLAED4's middle way, a two-pole rational scheme
(Bunch–Nielsen–Sorensen family): model ``w`` by
``c + a/(Δ_1 − η) + b/(Δ_2 − η)`` at the two bracketing poles, with
``a``, ``b`` and ``c`` chosen to match ``w`` and the derivatives of the
sums left and right of the first pole, then step to the model root.  A
per-root bisection bracket makes the scheme globally convergent.  All
roots of a panel iterate simultaneously with NumPy (this is the paper's
per-panel ``LAED4`` task, vectorized inside the panel).

The work is root-major: row j of a (2, m, k) buffer's two m×k slots
holds root j's pole terms, and every sum over the poles is a contiguous
row contraction.  A sweep makes two contractions
``np.einsum("ajk,k->aj", buf, z²)``, one for w and Σ|z_i²/Δ_i| and one
for the derivatives φ′ − ψ′ and ψ′ + φ′.  The fused form reduces each
row exactly as a lone ``np.einsum("jk,k->j", row, z²)`` would, so each
root's sums see the same operations in the same order whichever roots
share its panel, and ``orig``/``tau`` are bitwise independent of how a
merge splits its roots into panels.

A sweep holds only the active roots.  Their τ, bracket and model-pole
distances form one (5, active) state array, and their origin-relative
poles ``d_i − d_orig`` one (active, k) array, both made once per call.
On a sweep where some roots converge, both drop those roots' columns
and rows, in order; other sweeps index no per-root arrays.  Dropping
finished roots changes no other root's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError

__all__ = ["SecularRoots", "solve_secular", "secular_function",
           "delta_matrix", "eigenvalues_from_roots"]

_EPS = np.finfo(np.float64).eps
# Per-row constants of a sweep's two contractions: added to the first
# (w = 1 + ρΣ z²/Δ and the tolerance's 3 + ρΣ z²/|Δ|), and multiplied
# into the second's φ′ − ψ′ row to form ψ′ and φ′.
_ONES_THREES = np.array([[1.0], [3.0]])
_SIGNS = np.array([[-1.0], [1.0]])


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
        ``orig``/``tau``/``root_iterations`` are bitwise the same
        whatever other roots ``index`` lists, and in whatever order.

    The result counts the panel's sweeps (``iterations``, the largest of
    its roots' counts) and the sweeps each root stayed active for
    (``root_iterations``): the per-root LAED4 iteration counts of the
    solve's telemetry.  ``ConvergenceError`` names the roots still
    active after ``max_iter`` sweeps by their ``index`` values.
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

    # State order: a listed last root (k−1), whose φ term differs, goes
    # after the interior roots, so that it stays the last row of the
    # compacted state while it is active.  ``act`` maps state rows to
    # positions in ``index``.
    js_pos = js
    is_last = js == k - 1
    nlast = np.count_nonzero(is_last)
    act = np.arange(m)
    if nlast and not is_last[m - nlast:].all():
        act = np.argsort(is_last, kind="stable")
        js = js[act]
    act0 = act

    interior = js < k - 1
    nxt = np.minimum(js + 1, k - 1)
    dj = dlamda[js]
    gap = np.where(interior, dlamda[nxt] - dj, rho)
    half = 0.5 * gap

    # --- choose the origin pole by the sign of w at the interval midpoint.
    # The midpoint's pole distances are formed relative to d_j, as
    # (d_i − d_j) − gap/2, the way dlaed4 forms them.  A midpoint rounded
    # to an absolute float, fl(d_j + gap/2), can fall on the far side of
    # a root that lies within half an ulp of |d_j| of the exact midpoint;
    # w's sign then confines the root to the wrong half-bracket, and it
    # converges to that half's edge.
    flat = np.empty(2 * m * k)       # the (2, active, k) sweep buffer
    inv = flat[:m * k].reshape(m, k)
    np.subtract(dlamda[None, :], dj[:, None], out=inv)
    inv -= half[:, None]
    np.reciprocal(inv, out=inv)
    w_mid = 1.0 + rho * np.einsum("jk,k->j", inv, zsq)

    # w increases from -inf to +inf across the interval; w(mid) >= 0 means
    # the root lies in the left half, i.e. closer to the left pole.  The
    # last root's origin is always d_{k-1}.
    left_half = w_mid >= 0.0
    right = interior & ~left_half
    orig = js + right

    # --- initial bracket (lo, hi) and guess in τ = λ − d_orig coordinates
    # interior, left half:   τ ∈ (0, gap/2]
    # interior, right half:  τ ∈ [−gap/2, 0)
    # last, left half:       τ ∈ (0, ρ/2]
    # last, right half:      τ ∈ [ρ/2, ρ)
    lo = np.where(left_half, 0.0, np.where(interior, -half, half))
    hi = np.where(left_half, half, np.where(interior, 0.0, gap))
    tau = 0.5 * (lo + hi)
    if np.count_nonzero(tau) < m:
        # Keep strictly inside the open side of the bracket.
        tau = np.where(tau == 0.0, 0.25 * (hi - lo) + lo, tau)

    # The state of the active roots, one column per root: τ, the
    # bracket, and the origin-relative model poles d_p1 − d_orig and
    # d_p2 − d_orig (p1, p2 bracket the root's interval; p2 = p1 + 1).
    # orig is fixed from here on, so every sweep's Δ = base − τ starts
    # from the origin-relative poles d_i − d_orig, one row per root.
    # Rows of converged roots are dropped from both, in order.
    p1 = np.where(interior, js, k - 2)
    dorig = dlamda[orig]
    st = np.empty((5, m))
    st[0] = tau
    st[1] = lo
    st[2] = hi
    np.subtract(dlamda[p1], dorig, out=st[3])
    np.subtract(dlamda[p1 + 1], dorig, out=st[4])
    base = dlamda[None, :] - dorig[:, None]

    eps_k = _EPS * k
    eps_8 = 8.0 * _EPS
    rz_last = rho * zsq[k - 1]
    tau_out = np.empty(m)
    iters = np.zeros(m, dtype=np.int64)     # per-root sweep counts
    na = m                                  # active roots
    tau, lo, hi = st[0], st[1], st[2]
    work = flat.reshape(2, m, k)
    inv, ainv = work[0], work[1]
    total_sweeps = 0
    for total_sweeps in range(1, max_iter + 1):
        np.subtract(base, tau[:, None], out=inv)
        np.reciprocal(inv, out=inv)
        np.abs(inv, out=ainv)
        # ψ collects the poles at or left of p1, φ the poles right of it.
        # For interior roots p1 = j and λ ∈ (d_j, d_{j+1}), so the split
        # coincides with the sign of Δ: ψ gathers the negative terms, φ
        # the positive ones — recoverable from the plain and absolute
        # sums without an O(k·m) cumulative sum.  For the last root every
        # Δ is negative; its φ is the single pole d_{k-1}, handled
        # explicitly below.  Both sums are one contraction over the
        # (2, na, k) buffer, which still reduces each row on its own.
        s = np.einsum("ajk,k->aj", work, zsq)
        s *= rho
        s += _ONES_THREES
        w, tol = s[0], s[1]            # w, and 3 + ρ Σ|z_i²/Δ_i|
        tol *= eps_k

        # Update brackets from the sign of w.
        pos = w > 0.0
        np.minimum(hi, tau, out=hi, where=pos)
        np.logical_not(pos, out=pos)
        np.maximum(lo, tau, out=lo, where=pos)

        conv = np.abs(w) <= tol
        # Secondary stop: bracket collapsed *relative to τ*.  lo and hi
        # carry the sign of τ (the bracket never straddles the pole), so
        # this enforces high relative accuracy of τ — which the Gu
        # stabilization downstream needs to keep eigenvectors accurate.
        width = hi - lo
        atau = np.abs(tau)
        atau *= eps_8
        conv |= width <= atau
        nconv = np.count_nonzero(conv)
        if nconv:
            done = act[conv]
            tau_out[done] = tau[conv]
            iters[done] = total_sweeps
            if nconv == na:
                na = 0
                break

        # "Middle way" two-pole step (Ren-Cang Li / DLAED4): split the sum
        # at the left model pole into ψ (poles ≤ p1) and φ (poles > p1),
        # and give each model pole the weight that matches the exact
        # derivative of its side: a = Δ1²ψ', b = Δ2²φ', c = w − Δ1ψ' − Δ2φ'.
        np.multiply(inv, ainv, out=inv)          # sign(Δ) / Δ²
        np.multiply(ainv, ainv, out=ainv)        # 1 / Δ² (all positive)
        s = np.einsum("ajk,k->aj", work, zsq)
        s *= rho                                 # φ' − ψ', ψ' + φ'
        dp = s[0] * _SIGNS
        dp += s[1]
        dp *= 0.5                                # ψ'(λ) ≥ 0, φ'(λ) ≥ 0
        d12 = st[3:5] - tau                      # Δ1, Δ2
        if nlast:
            # Last root: φ is the single pole d_{k-1} (= p2 = origin).
            d2 = d12[1, na - nlast:]
            phi_last = rz_last / (d2 * d2)
            dp[1, na - nlast:] = phi_last
            np.subtract(s[1, na - nlast:], phi_last, out=dp[0, na - nlast:])
        ab = d12 * d12
        ab *= dp                                 # a, b
        dp *= d12
        c = w                                    # w is not needed again
        c -= dp[0]
        c -= dp[1]
        # Quadratic  c η² − B η + C = 0 for the step η.
        qb = d12[0] + d12[1]
        qb *= c
        qb += ab[0]
        qb += ab[1]
        qc = c * d12[0]
        qc *= d12[1]
        ab *= d12[::-1]                          # a Δ2, b Δ1
        qc += ab[0]
        qc += ab[1]
        disc = qb * qb
        c *= 4.0
        c *= qc
        disc -= c
        np.maximum(disc, 0.0, out=disc)
        np.sqrt(disc, out=disc)
        np.negative(disc, out=disc, where=qb < 0.0)
        disc += qb                               # B + sign(B)·√disc
        qc *= 2.0
        eta = np.zeros(na)
        np.divide(qc, disc, out=eta, where=disc != 0.0)
        # Safeguard: keep strictly inside the bracket, else bisect.  A
        # step of exactly zero with |w|>tol means the model stalled.
        # lo and hi are finite, so a non-finite step fails the test.
        ok = eta != 0.0
        eta += tau
        ok &= eta > lo
        ok &= eta < hi
        np.add(lo, hi, out=tau)
        tau *= 0.5
        np.copyto(tau, eta, where=ok)
        if np.count_nonzero(tau) < na:
            # Never land exactly on the origin pole.
            np.copyto(tau, 0.5 * (lo + hi) * 0.5 + 0.25 * hi,
                      where=tau == 0.0)
        if nconv:
            keep = np.logical_not(conv, out=conv)
            if nlast:
                nlast = np.count_nonzero(keep[na - nlast:])
            na -= nconv
            st = st[:, keep]
            act = act[keep]
            # Gather base's kept rows into the sweep buffer, unused until
            # the next sweep, and copy them back.  A fresh (active, k)
            # array on every such sweep, or a buffered take into an
            # overlapping or default-mode ``out``, costs page faults,
            # also in the kernels that run after this one.
            rows = flat[:na * k].reshape(na, k)
            np.take(base, np.flatnonzero(keep), axis=0, out=rows,
                    mode="clip")
            base = base[:na]
            base[...] = rows
            tau, lo, hi = st[0], st[1], st[2]
            work = flat[:2 * na * k].reshape(2, na, k)
            inv, ainv = work[0], work[1]

    if na:
        stuck = js_pos[np.sort(act)]
        raise ConvergenceError(
            f"secular solve did not converge for root(s) "
            f"{stuck[:8].tolist()} after {max_iter} sweeps "
            f"(k={k}, rho={rho:.3e})")
    orig_pos = np.empty(m, dtype=np.intp)
    orig_pos[act0] = orig
    return SecularRoots(orig_pos, tau_out,
                        eigenvalues_from_roots(dlamda, orig_pos, tau_out),
                        total_sweeps, iters)
