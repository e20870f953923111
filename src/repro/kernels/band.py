"""Two-stage reduction substrate: dense → band → tridiagonal.

The paper's context (Sec. I and [3]: Haidar, Ltaief, Dongarra) is
PLASMA's two-stage symmetric reduction — a blocked dense-to-band stage
whose compute is BLAS-3 rich, followed by a fine-grained bulge-chasing
stage from band to tridiagonal.  The related work also notes the
alternative of reducing "to band form (not especially tridiagonal form)
before using a band eigensolver".

``dense_to_band``
    Blocked Householder reduction of a dense symmetric matrix to
    symmetric band form with bandwidth ``b`` (panel QR of each block
    column + two-sided block update).
``band_to_tridiagonal``
    Schwarz-style Givens bulge chasing: annihilate the outer band
    diagonals column by column, chasing each bulge off the end.
``two_stage_tridiagonalize``
    The full pipeline, returning (d, e) plus the accumulated orthogonal
    transform.
"""

from __future__ import annotations

import math

import numpy as np

from .givens import lartg

__all__ = ["dense_to_band", "band_to_tridiagonal",
           "two_stage_tridiagonalize", "bandwidth_of"]


def bandwidth_of(a: np.ndarray, tol: float = 0.0) -> int:
    """Smallest b such that a[i, j] == 0 (|.| <= tol) for |i-j| > b."""
    n = a.shape[0]
    for b in range(n - 1, 0, -1):
        if np.max(np.abs(np.diag(a, b))) > tol:
            return b
    return 0


def _householder(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    alpha = x[0]
    sigma = float(np.dot(x[1:], x[1:]))
    v = x.copy()
    v[0] = 1.0
    if sigma == 0.0:
        return v, 0.0, float(alpha)
    beta = -math.copysign(math.hypot(alpha, math.sqrt(sigma)), alpha)
    tau = (beta - alpha) / beta
    v[1:] = x[1:] / (alpha - beta)
    return v, float(tau), float(beta)


def dense_to_band(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the symmetric matrix ``a`` to band form of bandwidth ``b``.

    Returns ``(band, q)`` with ``q.T @ a @ q = band`` (band symmetric,
    zero outside ``|i−j| ≤ b``).  Panels of width b are annihilated with
    Householder reflectors; the two-sided updates are the BLAS-3-rich
    part of the first stage.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not (1 <= b < max(n, 2)):
        raise ValueError("bandwidth must satisfy 1 <= b < n")
    scale = max(1.0, float(np.max(np.abs(a))))
    if not np.allclose(a, a.T, atol=1e-12 * scale):
        raise ValueError("matrix must be symmetric")
    q = np.eye(n)
    for k in range(0, n - b - 1, b):
        # Panel: annihilate rows k+b+1..n-1 of columns k..k+b-1 by a QR
        # of the block below the band.
        j1 = min(k + b, n)
        for j in range(k, j1):
            lo = j + b
            if lo >= n - 0:
                break
            x = a[lo:, j]
            if np.all(x[1:] == 0.0):
                continue
            v, tau, beta = _householder(x)
            if tau == 0.0:
                continue
            # Two-sided symmetric update restricted to rows/cols lo:.
            sub = a[lo:, lo:]
            w = tau * (sub @ v)
            w -= (0.5 * tau * np.dot(w, v)) * v
            sub -= np.outer(v, w)
            sub -= np.outer(w, v)
            # Row/column coupling with the columns left of lo.
            block = a[lo:, k:lo]
            block -= np.outer(tau * v, v @ block)
            a[k:lo, lo:] = block.T
            a[lo:, j] = 0.0
            a[lo, j] = beta
            a[j, lo:] = a[lo:, j]
            # Accumulate Q.
            qblock = q[:, lo:]
            qblock -= np.outer(qblock @ (tau * v), v)
    a = 0.5 * (a + a.T)
    # Numerical zeros outside the band.
    for off in range(b + 1, n):
        a[np.arange(n - off), np.arange(off, n)] = 0.0
        a[np.arange(off, n), np.arange(n - off)] = 0.0
    return a, q


def band_to_tridiagonal(band: np.ndarray, b: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Givens bulge-chasing reduction of a symmetric band matrix.

    Returns ``(d, e, q)`` with ``q.T @ band @ q`` tridiagonal.  This is
    the fine-grained second stage whose memory-aware kernels [3]
    motivated PLASMA's task-based approach.
    """
    a = np.array(band, dtype=np.float64, copy=True)
    n = a.shape[0]
    if b < 1:
        raise ValueError("bandwidth must be >= 1")
    q = np.eye(n)

    def rotate(i: int, j: int, c: float, s: float) -> None:
        """Apply Gᵀ A G and accumulate G into q (rows/cols i < j)."""
        ri = a[i, :].copy()
        rj = a[j, :].copy()
        a[i, :] = c * ri + s * rj
        a[j, :] = -s * ri + c * rj
        ci = a[:, i].copy()
        cj = a[:, j].copy()
        a[:, i] = c * ci + s * cj
        a[:, j] = -s * ci + c * cj
        qi = q[:, i].copy()
        qj = q[:, j].copy()
        q[:, i] = c * qi + s * qj
        q[:, j] = -s * qi + c * qj

    for width in range(b, 1, -1):
        # Remove the outermost remaining diagonal (offset = width).
        for k in range(0, n - width):
            if a[k + width, k] == 0.0:
                continue
            # Zero a[k+width, k] against a[k+width-1, k].
            i, j = k + width - 1, k + width
            c, s, _ = lartg(a[i, k], a[j, k])
            rotate(i, j, c, s)
            a[j, k] = 0.0
            a[k, j] = 0.0
            # The rotation of rows (i, j) fills a[i, j+width] — a bulge
            # at distance width+1 below the diagonal at column r = i.
            # Chase it down: each kill rotation moves the bulge width-1
            # columns further right until it falls off the matrix.
            r = i
            while r + width + 1 < n:
                bi = r + width + 1
                if a[bi, r] == 0.0:
                    break
                c, s, _ = lartg(a[bi - 1, r], a[bi, r])
                rotate(bi - 1, bi, c, s)
                a[bi, r] = 0.0
                a[r, bi] = 0.0
                r = bi - 1
    d = np.diag(a).copy()
    e = np.diag(a, -1).copy()
    return d, e, q


def two_stage_tridiagonalize(a: np.ndarray, b: int | None = None
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense → band → tridiagonal, returning (d, e, Q) with QᵀAQ = T."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy(), np.empty(0), np.ones((1, 1))
    if b is None:
        b = max(2, min(32, n // 8))
    b = min(b, n - 1)
    band, q1 = dense_to_band(a, b)
    if b == 1:
        return np.diag(band).copy(), np.diag(band, -1).copy(), q1
    d, e, q2 = band_to_tridiagonal(band, b)
    return d, e, q1 @ q2
