"""Givens rotations (DLARTG / DROT equivalents)."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["lartg", "rot", "lapy2", "apply_rotation_chains"]


def lapy2(x: float, y: float) -> float:
    """sqrt(x**2 + y**2) without unnecessary overflow (DLAPY2)."""
    return math.hypot(x, y)


def lartg(f: float, g: float) -> tuple[float, float, float]:
    """Generate a plane rotation: returns (c, s, r) with::

        [  c  s ] [ f ]   [ r ]
        [ -s  c ] [ g ] = [ 0 ]

    Stable scaling follows DLARTG (sign convention of LAPACK >= 3.x:
    c >= 0 when f dominates).
    """
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, 1.0, g
    r = math.copysign(math.hypot(f, g), f if abs(f) > abs(g) else g)
    c = f / r
    s = g / r
    return c, s, r


def rot(x: np.ndarray, y: np.ndarray, c: float, s: float) -> None:
    """Apply a plane rotation to two vectors in place (BLAS DROT)::

        x <- c*x + s*y
        y <- c*y - s*x   (using the original x)
    """
    tmp = c * x + s * y
    y *= c
    y -= s * x
    x[...] = tmp


#: Minimum number of chains for the batched path to pay for its
#: gather/scatter machinery.
_MIN_BATCH_CHAINS = 8

#: Batched-vs-streaming crossover height: blocks taller than this
#: stream, shorter ones batch (the streaming path wins on tall blocks,
#: whose columns stay cache-resident).
_CROSSOVER_HEIGHT = 512


def _apply_streaming(V: np.ndarray, lo: int, hi: int, chains) -> None:
    """Per-rotation streaming path: tall columns stay cache-resident.

    Works on rows of ``V.T`` (columns of F-ordered ``V``) with two
    preallocated scratch rows, so the inner loop allocates nothing.
    The element-wise expressions match :func:`rot` exactly:
    ``q_i' = (c*q_i) + (s*q_j)`` and ``q_j' = (c*q_j) - (s*q_i)``.
    """
    VT = V.T
    tmp = np.empty(hi - lo)
    sqi = np.empty(hi - lo)
    for chain in chains:
        for rt in chain:
            qi = VT[lo + rt.i, lo:hi]
            qj = VT[lo + rt.j, lo:hi]
            np.multiply(qi, rt.c, out=tmp)
            np.multiply(qj, rt.s, out=sqi)
            tmp += sqi                       # q_i' = c*q_i + s*q_j
            np.multiply(qi, rt.s, out=sqi)   # s * original q_i
            qj *= rt.c
            qj -= sqi                        # q_j' = c*q_j - s*q_i
            qi[...] = tmp


def _apply_batched(V: np.ndarray, lo: int, hi: int, chains) -> None:
    """Vectorized rounds: the ``r``-th rotations of all chains commute
    (disjoint column sets), so gather the ``i``/``j`` columns of every
    chain still active at round ``r``, combine, and scatter back.  This
    turns ``sum(len(chain))`` BLAS-1 column updates into
    ``max(len(chain))`` matrix-panel operations."""
    VT = V.T
    max_len = max(len(c) for c in chains)
    for r in range(max_len):
        rots = [c[r] for c in chains if len(c) > r]
        m = len(rots)
        ii = np.fromiter((lo + rt.i for rt in rots), np.intp, count=m)
        jj = np.fromiter((lo + rt.j for rt in rots), np.intp, count=m)
        cc = np.fromiter((rt.c for rt in rots), np.float64, count=m)[:, None]
        ss = np.fromiter((rt.s for rt in rots), np.float64, count=m)[:, None]
        Qi = VT[ii, lo:hi]                   # gathers copy: safe to scatter
        Qj = VT[jj, lo:hi]
        VT[ii, lo:hi] = Qi * cc + Qj * ss    # deflated columns
        VT[jj, lo:hi] = Qj * cc - Qi * ss    # surviving columns


def apply_rotation_chains(V: np.ndarray, lo: int, hi: int, chains) -> None:
    """Apply several disjoint rotation chains to columns of ``V[lo:hi]``.

    Chains (see :func:`repro.kernels.deflation.rotation_chains`) touch
    pairwise-disjoint column sets.  Two execution strategies, both
    bitwise identical to applying the rotations one at a time with
    :func:`rot` (IEEE multiplication is commutative, and the add/sub
    order per element is the same):

    * ``_apply_streaming`` — per-rotation loop over column views; wins
      for tall columns, which stay cache-resident while a batched
      round's gathered panels do not.
    * ``_apply_batched`` — vectorized rounds across chains; wins when
      many short columns amortize the gather/scatter machinery.

    Batch only when there are at least ``_MIN_BATCH_CHAINS`` chains
    *and* the block height ``hi - lo`` is at or below
    ``_CROSSOVER_HEIGHT``.
    """
    chains = [c for c in chains if c]
    if not chains:
        return
    if len(chains) < _MIN_BATCH_CHAINS or hi - lo > _CROSSOVER_HEIGHT:
        _apply_streaming(V, lo, hi, chains)
    else:
        _apply_batched(V, lo, hi, chains)
