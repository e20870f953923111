"""Norms and scaling of tridiagonal matrices (DLANST / DLASCL).

``dstedc`` scales the tridiagonal matrix to max-norm one before dividing
(:func:`scale_to_unit_norm`), and scales the eigenvalues back
afterwards; the paper's DAG shows this as the ``Scale T`` / ``Scale
back`` tasks.  ``dstemr`` only scales a matrix outside the safe range
(:func:`scale_tridiagonal`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["lanst", "scale_tridiagonal", "scale_to_unit_norm", "ScaleInfo"]

#: Safe range bounds (DLAMCH('S')-based RMIN/RMAX, as dstemr uses them).
_EPS = np.finfo(np.float64).eps
_SAFE_MIN = np.finfo(np.float64).tiny
_RMIN = np.sqrt(_SAFE_MIN / _EPS)
_RMAX = 1.0 / _RMIN


def lanst(norm: str, d: np.ndarray, e: np.ndarray) -> float:
    """Norm of a symmetric tridiagonal matrix (LAPACK DLANST).

    Parameters
    ----------
    norm:
        ``"M"`` max-abs entry, ``"1"``/``"I"`` one/inf norm (equal by
        symmetry), ``"F"`` Frobenius.
    d, e:
        Diagonal (n) and off-diagonal (n-1) entries.
    """
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    n = d.shape[0]
    if n == 0:
        return 0.0
    key = norm.upper()
    if key == "M":
        m = np.max(np.abs(d))
        if e.size:
            m = max(m, np.max(np.abs(e)))
        return float(m)
    if key in ("1", "O", "I"):
        if n == 1:
            return float(abs(d[0]))
        col = np.abs(d).copy()
        col[:-1] += np.abs(e)
        col[1:] += np.abs(e)
        return float(np.max(col))
    if key in ("F", "E"):
        return float(np.sqrt(np.sum(d * d) + 2.0 * np.sum(e * e)))
    raise ValueError(f"unknown norm {norm!r}")


class ScaleInfo:
    """Records the scaling applied so it can be undone on the eigenvalues."""

    __slots__ = ("sigma",)

    def __init__(self, sigma: float):
        self.sigma = sigma

    @property
    def scaled(self) -> bool:
        return self.sigma != 1.0

    def unscale_eigenvalues(self, lam: np.ndarray) -> np.ndarray:
        """In-place inverse scaling (the DAG's ``Scale back`` task)."""
        if self.scaled:
            lam *= 1.0 / self.sigma
        return lam


def scale_tridiagonal(d: np.ndarray, e: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, ScaleInfo]:
    """Scale (d, e) into the safe range; returns copies plus a ScaleInfo.

    The matrix is multiplied by ``sigma`` so that its max-norm lies in
    ``[RMIN, RMAX]``; eigenvalues of the scaled matrix must be divided by
    ``sigma`` afterwards (``ScaleInfo.unscale_eigenvalues``).
    """
    d = np.array(d, dtype=np.float64, copy=True)
    e = np.array(e, dtype=np.float64, copy=True)
    nrm = lanst("M", d, e)
    if nrm == 0.0 or (_RMIN <= nrm <= _RMAX):
        return d, e, ScaleInfo(1.0)
    sigma = (_RMIN / nrm) if nrm < _RMIN else (_RMAX / nrm)
    d *= sigma
    e *= sigma
    return d, e, ScaleInfo(sigma)


def scale_to_unit_norm(d: np.ndarray, e: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, ScaleInfo]:
    """Scale (d, e) by a power of two to a max-norm in (1/2, 1]; returns
    copies plus a ScaleInfo.

    The merge's deflation tolerance 8ε·max(|d|, |z|) (DLAED2) compares
    matrix entries with the unit vector z, so it only holds for a
    matrix of norm about one, which is why ``dstedc`` scales every block
    to norm one.  A power of two keeps the scaling exact.
    """
    d = np.array(d, dtype=np.float64, copy=True)
    e = np.array(e, dtype=np.float64, copy=True)
    nrm = lanst("M", d, e)
    if nrm == 0.0:
        return d, e, ScaleInfo(1.0)
    frac, exp = np.frexp(nrm)          # nrm = frac * 2**exp, frac in [1/2, 1)
    if frac == 0.5:
        exp -= 1                        # a power of two scales to exactly 1
    # Clamped so that sigma and 1/sigma are both normal numbers.
    exp = min(max(int(exp), -1022), 1022)
    sigma = float(np.ldexp(1.0, -exp))
    d *= sigma
    e *= sigma
    return d, e, ScaleInfo(sigma)
