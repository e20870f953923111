"""Typed error model of the fault-tolerant solve layer.

Every failure surfaced by the solver derives from :class:`ReproError`
and carries *context* — the offending input index, the unconverged
kernel, or the task (name, submission index, merge node) that raised —
instead of the bare ``RuntimeError`` a deep leaf task would otherwise
produce.  The concrete classes double-inherit from the builtin the
pre-typed code raised (``ValueError`` / ``RuntimeError``), so existing
``except`` clauses and tests keep working.

Hierarchy::

    ReproError
    ├── InputError        (also ValueError)   — rejected at the API boundary
    ├── ConvergenceError  (also RuntimeError) — an iterative kernel gave up
    ├── TaskFailure       (also RuntimeError) — a task raised; wraps the
    │                                           cause with task context
    ├── InjectedFault     (also RuntimeError) — deterministic test fault
    ├── GraphError        (also RuntimeError) — malformed task DAG (a
    │                                           backward edge or a cycle)
    └── SchedulerError    (also RuntimeError) — runtime invariant violated

The boundary validators (:func:`validate_tridiagonal`,
:func:`validate_subset`) are what turns a NaN input — which LAPACK's
leaf solve would pass through silently into every later kernel — into
``InputError("d[10] is nan")`` before any task runs.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

__all__ = ["ReproError", "InputError", "ConvergenceError", "TaskFailure",
           "InjectedFault", "GraphError", "SchedulerError",
           "validate_tridiagonal", "validate_subset", "wrap_task_error"]


class ReproError(Exception):
    """Base class of every typed solver error."""


class InputError(ReproError, ValueError):
    """Invalid input rejected at the API boundary (names the offender)."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative kernel gave up: a secular iteration, a LAPACK leaf
    solve (``LinAlgError``, re-raised) or a QR-iteration sweep."""


class TaskFailure(ReproError, RuntimeError):
    """A task of the DAG raised during execution.

    Carries the task's name, submission index (``seq``), trace tag
    (the merge node span for merge kernels) and — on the threads
    backend — the worker that ran it.  The original exception is
    chained as ``__cause__``.  ``trace`` is the failed run's partial
    :class:`~repro.runtime.trace.Trace` (the tasks that completed),
    attached by the engine before the failure reaches the caller.
    """

    def __init__(self, message: str, *, task_name: str = "",
                 seq: int = -1, tag: Any = None,
                 worker: Optional[int] = None):
        super().__init__(message)
        self.task_name = task_name
        self.seq = seq
        self.tag = tag
        self.worker = worker
        self.trace = None


class InjectedFault(ReproError, RuntimeError):
    """Deterministic fault raised by the test-only injection hooks."""


class GraphError(ReproError, RuntimeError):
    """The task graph is malformed: an edge that does not point forward
    in submission order, or (in a hand-built graph) a cycle."""


class SchedulerError(ReproError, RuntimeError):
    """A runtime scheduling invariant was violated (e.g. deadlock)."""


def wrap_task_error(task, exc: BaseException,
                    worker: Optional[int] = None) -> TaskFailure:
    """Wrap ``exc`` raised by ``task`` into a :class:`TaskFailure`.

    Idempotent: an exception that is already a ``TaskFailure`` is
    returned unchanged (a nested runtime must not re-wrap).  Callers
    should ``raise wrap_task_error(task, exc) from exc`` so the original
    traceback is chained.
    """
    if isinstance(exc, TaskFailure):
        return exc
    where = f"task {task.name!r} (seq {task.seq}"
    if task.tag is not None:
        where += f", tag {task.tag}"
    if worker is not None:
        where += f", worker {worker}"
    where += ")"
    return TaskFailure(f"{where} failed: {exc}", task_name=task.name,
                       seq=task.seq, tag=task.tag, worker=worker)


def _describe(x: float) -> str:
    """Human form of a non-finite float: 'nan', 'inf', '-inf'."""
    return repr(float(x))


def validate_tridiagonal(d, e) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce the (d, e) pair of a tridiagonal matrix.

    Returns float64 1-D arrays; raises :class:`InputError` naming the
    first offending entry on shape mismatch or non-finite input.
    """
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if d.ndim != 1:
        raise InputError(f"d must be 1-D, got shape {d.shape}")
    if e.ndim != 1:
        raise InputError(f"e must be 1-D, got shape {e.shape}")
    n = d.shape[0]
    if n == 0:
        raise InputError("empty matrix (d has length 0)")
    if e.shape[0] != n - 1:
        raise InputError(
            f"e must have length n-1 = {n - 1}, got {e.shape[0]}")
    for name, arr in (("d", d), ("e", e)):
        if arr.size and not np.isfinite(arr).all():
            i = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise InputError(f"{name}[{i}] is {_describe(arr[i])}")
    return d, e


def validate_subset(subset, n: int) -> Optional[np.ndarray]:
    """Validate eigenpair subset indices against problem size ``n``.

    Returns the sorted, deduplicated index array (possibly empty —
    "compute eigenvalues, no vectors"), or ``None`` when no subset was
    requested.  Raises :class:`InputError` naming the offending index.
    """
    if subset is None:
        return None
    try:
        s = np.unique(np.asarray(subset, dtype=np.intp))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"subset must be integer indices: {exc}") from exc
    if s.size:
        if s[0] < 0:
            raise InputError(f"subset index {int(s[0])} is negative")
        if s[-1] >= n:
            raise InputError(
                f"subset index {int(s[-1])} out of range for n={n}")
    return s
