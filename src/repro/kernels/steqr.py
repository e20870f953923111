"""QR/QL-iteration symmetric tridiagonal eigensolver (DSTEQR equivalent).

The "QR iterations" related-work baseline (``repro-eig solve --solver
qr``, ``examples/compare_solvers.py``).  The D&C leaves do not use it:
they call LAPACK through ``numpy.linalg.eigh`` (docs/NUMERICS.md §5).

The implementation follows the implicit-shift QL algorithm of EISPACK's
``tql2`` (the same algorithm underlying DSTEQR): for each eigenvalue,
Wilkinson-shifted implicit QL sweeps drive the off-diagonal to zero;
rotations are accumulated into the eigenvector matrix, stored
transposed so each rotation updates two contiguous rows.  The scalar
recurrences run on Python floats.  Eigenvalues are returned in
ascending order with matching eigenvector columns.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConvergenceError, InputError

__all__ = ["steqr"]

_EPS = float(np.finfo(np.float64).eps)


def steqr(d: np.ndarray, e: np.ndarray, *,
          max_sweeps: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the symmetric tridiagonal matrix ``(d, e)``.

    Parameters
    ----------
    d : (n,) diagonal.
    e : (n-1,) off-diagonal.
    max_sweeps : QL sweeps allowed per eigenvalue before raising.

    Returns
    -------
    (lam, V): ``lam`` ascending; columns of ``V`` are the eigenvectors
    (``V.T @ T @ V = diag(lam)``, ``V`` orthogonal).

    Like DSTEQR, the sweep direction must match the matrix grading: the
    QL iteration converges for matrices graded small-to-large downward;
    if it stalls, the reversed matrix is solved instead (equivalent to
    running QR sweeps) and the eigenvectors are flipped back.
    Non-finite input raises :class:`~repro.errors.InputError`.
    """
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if e.shape[0] != max(0, d.shape[0] - 1):
        raise ValueError("e must have length n-1")
    if not np.isfinite(d).all() or not np.isfinite(e).all():
        # A NaN makes every convergence test false; reject it here
        # rather than fail deep in the recurrences.
        raise InputError("tridiagonal input contains non-finite entries")
    try:
        return _tql2(d, e, max_sweeps)
    except ConvergenceError:
        lam, V = _tql2(d[::-1], e[::-1], 2 * max_sweeps)
        # Row j of the reversed matrix's eigenvectors is row n-1-j of
        # the original's.
        return lam, V[::-1]


def _tql2(d, e, max_sweeps: int):
    """One QL pass over ``(d, e)``: ``(lam, V)``, ``lam`` ascending."""
    n = d.shape[0]
    # W = Vᵀ: rotating columns i, i+1 of V rotates rows i, i+1 of W.
    W = np.eye(n)
    w_rows = list(W)
    w_pairs = [W[i:i + 2] for i in range(n - 1)]
    sw = np.empty((2, n))               # s * W[i:i+2]
    cw = np.empty((2, n))               # c * W[i:i+2]
    sw0, sw1 = sw
    cw0, cw1 = cw
    mul, add, sub = np.multiply, np.add, np.subtract
    d = d.tolist()
    ee = e.tolist() + [0.0]
    hypot, copysign = math.hypot, math.copysign

    for l in range(n):
        sweeps = 0
        while True:
            # Find the first negligible off-diagonal at or after l.
            m = l
            while m < n - 1:
                if abs(ee[m]) <= _EPS * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise ConvergenceError(
                    f"steqr failed to converge for eigenvalue {l} "
                    f"after {max_sweeps} sweeps (n={n})")
            # Wilkinson shift from the top 2x2 of the active block.
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = hypot(g, 1.0)
            g = d[m] - d[l] + ee[l] / (g + copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = hypot(f, g)
                ee[i + 1] = r
                if r == 0.0:
                    # Recover from underflow: split the matrix and retry.
                    d[i + 1] -= p
                    ee[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                # V[:, i+1] = s*V[:, i] + c*V[:, i+1]
                # V[:, i]   = c*V[:, i] - s*V[:, i+1]
                pair = w_pairs[i]
                mul(pair, s, sw)
                mul(pair, c, cw)
                add(sw0, cw1, w_rows[i + 1])
                sub(cw0, sw1, w_rows[i])
            if underflow:
                continue
            d[l] -= p
            ee[l] = g
            ee[m] = 0.0

    lam = np.array(d)
    order = np.argsort(lam, kind="stable")
    return lam[order], W[order].T

