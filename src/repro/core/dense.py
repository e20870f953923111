"""Full dense symmetric eigensolver pipeline (paper Eqs. 1–3).

``eigh(A)`` = Householder tridiagonalization + task-flow D&C tridiagonal
eigensolve + back-transformation of the eigenvectors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..kernels.householder import apply_q_inplace, tridiagonalize
from ..runtime.quark import Quark, validate_backend
from ..runtime.task import DataHandle, GATHERV, TaskCost
from .merge import panel_ranges
from .options import DCOptions
from .solver import dc_eigh

__all__ = ["eigh"]


def eigh(a: np.ndarray, *, options: Optional[DCOptions] = None,
         backend: str = "sequential",
         n_workers: Optional[int] = None,
         two_stage: bool = False,
         bandwidth: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of the dense symmetric matrix ``a``.

    Returns ``(lam, V)`` with ``a @ V == V @ diag(lam)`` and ``lam``
    ascending.  The tridiagonal stage uses the task-flow D&C solver; the
    back-transformation (Eq. 3, "relies on matrix products and is
    already efficient") runs as independent column-panel tasks on the
    same runtime backend.  An unknown ``backend`` raises
    :class:`~repro.errors.InputError` before the reduction starts.

    ``two_stage=True`` reduces via the PLASMA-style two-stage pipeline
    (dense → band of the given ``bandwidth`` → tridiagonal by bulge
    chasing, paper ref. [3]) instead of the direct Householder
    reduction; numerically equivalent, different kernel mix.
    """
    validate_backend(backend)
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return a[0, :1].astype(float).copy(), np.ones((1, 1))
    opts = options or DCOptions()
    if two_stage:
        from ..kernels.band import two_stage_tridiagonalize
        d2, e2, q2 = two_stage_tridiagonalize(a, bandwidth)
        lam, vt = dc_eigh(d2, e2, options=opts, backend=backend,
                          n_workers=n_workers)
        return lam, q2 @ vt
    tri = tridiagonalize(a)
    lam, vt = dc_eigh(tri.d, tri.e, options=opts, backend=backend,
                      n_workers=n_workers)
    # Task-flow back-transformation: reflectors act on rows, so column
    # panels transform independently (GATHERV on the output matrix).
    out = np.array(vt, copy=True, order="F")
    quark = Quark(backend, n_workers=n_workers)
    hV = DataHandle("V-back")
    for (p0, p1) in panel_ranges(n, opts.effective_nb(n)):
        quark.insert_task(
            lambda a0=p0, a1=p1: apply_q_inplace(tri, out[:, a0:a1]),
            [(hV, GATHERV)], name="ApplyQ",
            cost=TaskCost(flops=4.0 * n * n * (p1 - p0)))
    quark.barrier()
    return lam, out
