"""Top-level D&C tridiagonal eigensolver API.

``dc_eigh(d, e)`` computes all eigenpairs of the symmetric tridiagonal
matrix with diagonal ``d`` and off-diagonal ``e`` using the task-flow
Divide & Conquer algorithm of Pichon et al. (IPDPS 2015).

The same task graph runs on any runtime backend:

* ``backend="sequential"`` — submission-order execution (the reference);
* ``backend="threads"`` — out-of-order execution on OS threads (NumPy
  kernels release the GIL, so GEMM/secular panels overlap);
* ``backend="simulated"`` — deterministic discrete-event execution on a
  virtual multicore (timing studies; numerics identical).

All backends produce bitwise-identical ``(lam, V)``.

``DCOptions(jobz="N")`` requests eigenvalues only: the solver runs the
reduced boundary-row-strip DAG (O(n) auxiliary state, no cubic GEMM)
and returns ``V = None``.  The eigenvalues are bitwise identical to the
``jobz="V"`` path on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ReproError
from ..runtime.dag import TaskGraph
from ..runtime.quark import validate_backend
from ..runtime.simulator import Machine
from ..runtime.trace import Trace
from .options import DCOptions
from .session import SolverSession
from .tasks import DCGraphInfo

__all__ = ["dc_eigh", "dc_eigh_many", "DCResult", "SolveFailure",
           "DCOptions"]


@dataclass
class DCResult:
    """Eigen-decomposition plus solve diagnostics.

    ``lam``/``V`` satisfy ``T V = V diag(lam)`` with ``lam`` ascending.
    ``V`` is ``None`` for an eigenvalue-only solve (``jobz="N"``).
    """

    lam: np.ndarray
    V: Optional[np.ndarray]
    trace: Trace
    graph: TaskGraph
    info: DCGraphInfo

    @property
    def makespan(self) -> float:
        return self.trace.makespan

    def deflation_ratios(self) -> list[float]:
        return [s.deflation_ratio for s in self.info.ctx.merge_stats]

    @property
    def total_deflation(self) -> float:
        """Deflation ratio of the final (dominant) merge."""
        stats = self.info.ctx.merge_stats
        return stats[-1].deflation_ratio if stats else 0.0


@dataclass
class SolveFailure:
    """Error record for one failed problem of a :func:`dc_eigh_many` batch.

    Takes the failed problem's slot in the result list so the batch keeps
    its input order; ``error`` is the typed :class:`~repro.errors.ReproError`
    (with the original cause chained) that the solve raised.
    """

    index: int
    error: ReproError


def dc_eigh(d: np.ndarray, e: np.ndarray, *,
            options: Optional[DCOptions] = None,
            backend: str = "sequential",
            n_workers: Optional[int] = None,
            machine: Optional[Machine] = None,
            subset: Optional[np.ndarray] = None,
            full_result: bool = False):
    """Eigendecomposition of a symmetric tridiagonal matrix by D&C.

    Parameters
    ----------
    d, e:
        Diagonal (n) and off-diagonal (n−1) of T.
    options:
        :class:`DCOptions` tuning (panel size, leaf size, scheduling
        variants).
    backend, n_workers, machine:
        Runtime selection, see module docstring.
    subset:
        Optional eigenvalue indices (0-based, in ascending-eigenvalue
        order) to return eigenvectors for.  All eigenvalues are always
        computed; the final merge's expensive eigenvector update is
        restricted to the wanted columns (the paper's Sec. I discussion
        of [6]).  ``V`` then has ``len(subset)`` columns.
    full_result:
        Return a :class:`DCResult` (with trace/graph/deflation stats)
        instead of the plain ``(lam, V)`` pair.

    Returns
    -------
    ``(lam, V)`` with ascending eigenvalues and orthonormal eigenvector
    columns, or a :class:`DCResult`.  With ``options.jobz == "N"`` the
    eigenvalues are identical (bitwise) and ``V`` is ``None``.

    Implemented as a one-shot :class:`~repro.core.session.SolverSession`
    (no persistent pool, no workspace arena), so single-solve numerics
    and traces are byte-for-byte what they always were; long-running
    callers should hold a session instead and amortize worker spin-up
    and workspace allocation across solves.
    """
    session = SolverSession(backend=backend, n_workers=n_workers,
                            machine=machine, options=options, _one_shot=True)
    return session.solve(d, e, subset=subset, full_result=full_result)


def dc_eigh_many(problems, *,
                 options: Optional[DCOptions] = None,
                 backend: str = "sequential",
                 n_workers: Optional[int] = None,
                 machine: Optional[Machine] = None,
                 subset: Optional[np.ndarray] = None,
                 full_result: bool = False,
                 raise_on_error: bool = False,
                 use_session: bool = True) -> list:
    """Solve a batch of tridiagonal eigenproblems, reusing the DAG.

    ``problems`` is an iterable of ``(d, e)`` pairs.  Graph reuse is
    forced on: each same-shape solve after the first skips the task
    submission/dependency analysis entirely and only rebinds fresh
    per-solve state onto the cached skeleton — the high-throughput batch
    entry point.  Mixed shapes are fine; each distinct shape is analyzed
    once.

    With ``use_session=True`` (the default) the batch runs inside a
    :class:`~repro.core.session.SolverSession`: workspaces are pooled
    across solves and, on the threads backend, all submissions execute
    concurrently on one persistent worker pool as a fused super-DAG —
    panel tasks of one problem fill the workers idled by another's
    serial merge spine.  ``use_session=False`` keeps the historical
    serial one-shot loop (one scheduler spin-up per problem).

    Failures are isolated per problem: a solve that raises a typed
    :class:`~repro.errors.ReproError` (bad input, unrecoverable
    convergence failure, task failure) produces a :class:`SolveFailure`
    record in that problem's slot and the batch continues — on the
    fused pool only the failing sub-graph is cancelled.  Pass
    ``raise_on_error=True`` to abort on the first failure instead.

    Returns a list of ``(lam, V)`` pairs (or :class:`DCResult` when
    ``full_result=True``) and :class:`SolveFailure` records, in input
    order.  An unknown ``backend`` raises
    :class:`~repro.errors.InputError` before any problem is solved.
    """
    validate_backend(backend)
    opts = (options or DCOptions()).with_(reuse_graph=True)
    if use_session:
        with SolverSession(backend=backend, n_workers=n_workers,
                           machine=machine, options=opts) as session:
            return session.map(problems, subset=subset,
                               full_result=full_result,
                               raise_on_error=raise_on_error)
    out: list = []
    for i, (d, e) in enumerate(problems):
        try:
            out.append(dc_eigh(d, e, options=opts, backend=backend,
                               n_workers=n_workers, machine=machine,
                               subset=subset, full_result=full_result))
        except ReproError as exc:
            if raise_on_error:
                raise
            out.append(SolveFailure(i, exc))
    return out
