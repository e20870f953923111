"""Task-flow Householder tridiagonalization (paper context, ref. [3]).

The paper's pipeline (Eqs. 1–3) starts with the reduction A = Q T Qᵀ,
whose PLASMA implementation [3] ("Parallel reduction to condensed forms
for symmetric eigenvalue problems using aggregated fine-grained and
memory-aware kernels") is the task-based counterpart of this module:
the reduction is expressed as a sequential task flow over column tiles
and scheduled by the same runtime as the D&C solver.

Per Householder step k:

    PanelFactor(k)      compute the reflector v_k from column k
    SymvPart(k, tile)   partial w += A[:, tile] @ v  (GATHERV on w)
    SymvFinish(k)       w ← τ(Av − ½τ(vᵀAv)v)        (join on w)
    Rank2Update(k,tile) A[:, tile] −= v w ᵀ + w v ᵀ   (per-tile INOUT)

The panel factorization chains sequentially (as in any one-stage
reduction — the reason [3] moves to two stages), while the O(n²)
symv/update work of every step parallelizes over tiles.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..kernels.householder import Tridiagonalization
from ..runtime.quark import Quark
from ..runtime.simulator import Machine
from ..runtime.task import DataHandle, GATHERV, INOUT, INPUT, OUTPUT, TaskCost
from .merge import panel_ranges

__all__ = ["taskflow_tridiagonalize"]


def taskflow_tridiagonalize(a: np.ndarray, *,
                            backend: str = "sequential",
                            n_workers: Optional[int] = None,
                            machine: Optional[Machine] = None,
                            tile: Optional[int] = None,
                            full_result: bool = False):
    """Reduce a dense symmetric matrix to tridiagonal form as a task flow.

    Returns a :class:`~repro.kernels.householder.Tridiagonalization`
    (same contract as the sequential kernel: ``apply_q``/``q()`` work on
    it), or ``(tri, trace, graph)`` when ``full_result=True``.

    ``backend`` is one of :data:`~repro.runtime.quark.QUARK_BACKENDS`;
    any other name raises :class:`~repro.errors.InputError` before any
    task runs.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or n == 0:
        raise ValueError("matrix must be square and non-empty")
    scale = max(1.0, float(np.max(np.abs(a))))
    if n > 1 and not np.allclose(a, a.T, atol=1e-12 * scale):
        raise ValueError("matrix must be symmetric")
    tile = tile or max(32, n // 16)
    quark = Quark(backend, n_workers=n_workers, machine=machine)

    work = np.array(a, copy=True)
    d = np.empty(n)
    e = np.empty(max(0, n - 1))
    refl = np.zeros((n, n))
    taus = np.zeros(max(0, n - 1))
    state = {"v": None, "w": None, "tau": 0.0,
             "wparts": {}}

    htile = {t0: DataHandle(f"A[:, {t0}:{t1}]")
             for (t0, t1) in panel_ranges(n, tile)}
    tiles = list(panel_ranges(n, tile))
    hv = DataHandle("v")
    hw = DataHandle("w")

    def panel_factor(k: int) -> None:
        x = work[k + 1:, k]
        alpha = x[0]
        sigma = float(np.dot(x[1:], x[1:]))
        v = x.copy()
        v[0] = 1.0
        if sigma == 0.0:
            tau, beta = 0.0, float(alpha)
        else:
            beta = -math.copysign(math.hypot(alpha, math.sqrt(sigma)),
                                  alpha)
            tau = (beta - alpha) / beta
            v[1:] = x[1:] / (alpha - beta)
        taus[k] = tau
        refl[k + 1:, k] = v
        d[k] = work[k, k]
        e[k] = beta
        work[k + 1:, k] = 0.0
        work[k + 1, k] = beta
        work[k, k + 1:] = work[k + 1:, k]
        state["v"] = v
        state["tau"] = tau
        state["wparts"] = {}

    def symv_part(k: int, t0: int, t1: int) -> None:
        lo = max(t0, k + 1)
        if lo >= t1 or state["tau"] == 0.0:
            return
        v = state["v"]
        # Columns lo:t1 of the trailing block, rows k+1:.
        block = work[k + 1:, lo:t1]
        state["wparts"][t0] = (lo, block @ v[lo - (k + 1):t1 - (k + 1)])

    def symv_finish(k: int) -> None:
        tau = state["tau"]
        if tau == 0.0:
            state["w"] = None
            return
        v = state["v"]
        w = np.zeros(n - (k + 1))
        for lo, part in state["wparts"].values():
            w += part
        w *= tau
        w -= (0.5 * tau * np.dot(w, v)) * v
        state["w"] = w

    def rank2_update(k: int, t0: int, t1: int) -> None:
        if state["w"] is None:
            return
        lo = max(t0, k + 1)
        if lo >= t1:
            return
        v = state["v"]
        w = state["w"]
        cols = slice(lo, t1)
        vc = v[lo - (k + 1):t1 - (k + 1)]
        wc = w[lo - (k + 1):t1 - (k + 1)]
        work[k + 1:, cols] -= np.outer(v, wc)
        work[k + 1:, cols] -= np.outer(w, vc)

    for k in range(n - 2):
        col_tile = next(h for (t0, t1), h in
                        zip(tiles, htile.values()) if t0 <= k < t1)
        m = n - (k + 1)
        quark.insert_task(panel_factor,
                          [(col_tile, INOUT), (hv, OUTPUT)], args=(k,),
                          name="PanelFactor", tag=k,
                          cost=TaskCost(flops=4.0 * m))
        for (t0, t1) in tiles:
            if t1 <= k + 1:
                continue
            quark.insert_task(symv_part,
                              [(hv, INPUT), (htile[t0], INPUT),
                               (hw, GATHERV)], args=(k, t0, t1),
                              name="SymvPart", tag=(k, t0),
                              cost=TaskCost(flops=2.0 * m
                                            * (min(t1, n) - max(t0, k + 1))))
        quark.insert_task(symv_finish, [(hv, INPUT), (hw, INOUT)],
                          args=(k,), name="SymvFinish", tag=k,
                          cost=TaskCost(flops=4.0 * m))
        for (t0, t1) in tiles:
            if t1 <= k + 1:
                continue
            quark.insert_task(rank2_update,
                              [(hv, INPUT), (hw, INPUT),
                               (htile[t0], INOUT)], args=(k, t0, t1),
                              name="Rank2Update", tag=(k, t0),
                              cost=TaskCost(flops=4.0 * m
                                            * (min(t1, n) - max(t0, k + 1))))

    graph = quark.graph
    trace = quark.barrier()
    if n >= 2:
        d[n - 2] = work[n - 2, n - 2]
        e[n - 2] = work[n - 1, n - 2]
    d[n - 1] = work[n - 1, n - 1]
    tri = Tridiagonalization(d=d, e=e, reflectors=refl, taus=taus)
    if full_result:
        return tri, trace, graph
    return tri
