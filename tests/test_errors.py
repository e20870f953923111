"""Typed error model: hierarchy, boundary validation, edge-case fixes."""

import numpy as np
import pytest

from repro import SolverSession, dc_eigh, dc_eigh_many
from repro.errors import (ConvergenceError, GraphError, InjectedFault,
                          InputError, ReproError, SchedulerError,
                          TaskFailure, validate_subset,
                          validate_tridiagonal, wrap_task_error)


# ---------------------------------------------------------------------------
# Hierarchy: every typed error is a ReproError AND the builtin the
# pre-typed code raised, so old `except` clauses keep working.
# ---------------------------------------------------------------------------

def test_hierarchy_dual_inheritance():
    assert issubclass(InputError, ReproError)
    assert issubclass(InputError, ValueError)
    for cls in (ConvergenceError, TaskFailure, InjectedFault,
                GraphError, SchedulerError):
        assert issubclass(cls, ReproError)
        assert issubclass(cls, RuntimeError)


def test_task_failure_carries_context():
    exc = TaskFailure("boom", task_name="LAED4", seq=17,
                      tag=(0, 100), worker=3)
    assert exc.task_name == "LAED4"
    assert exc.seq == 17
    assert exc.tag == (0, 100)
    assert exc.worker == 3


def test_wrap_task_error_idempotent():
    class T:
        name, seq, tag = "K", 5, None
    inner = ValueError("x")
    wrapped = wrap_task_error(T(), inner)
    assert isinstance(wrapped, TaskFailure)
    assert "'K'" in str(wrapped) and "seq 5" in str(wrapped)
    # Re-wrapping a TaskFailure returns it unchanged.
    assert wrap_task_error(T(), wrapped) is wrapped


# ---------------------------------------------------------------------------
# Boundary validators
# ---------------------------------------------------------------------------

def test_validate_tridiagonal_names_offending_index():
    d = np.ones(20)
    e = np.ones(19)
    d[10] = np.nan
    with pytest.raises(InputError, match=r"d\[10\] is nan"):
        validate_tridiagonal(d, e)
    d[10] = 1.0
    e[3] = np.inf
    with pytest.raises(InputError, match=r"e\[3\] is inf"):
        validate_tridiagonal(d, e)


def test_validate_tridiagonal_shapes():
    with pytest.raises(InputError, match="1-D"):
        validate_tridiagonal(np.ones((3, 3)), np.ones(2))
    with pytest.raises(InputError, match="empty"):
        validate_tridiagonal([], [])
    with pytest.raises(InputError, match="length n-1"):
        validate_tridiagonal(np.ones(5), np.ones(5))


def test_validate_subset():
    assert validate_subset(None, 10) is None
    np.testing.assert_array_equal(validate_subset([3, 1, 3], 10), [1, 3])
    assert validate_subset([], 10).size == 0
    with pytest.raises(InputError, match="-1 is negative"):
        validate_subset([-1], 10)
    with pytest.raises(InputError, match="10 out of range"):
        validate_subset([10], 10)


# ---------------------------------------------------------------------------
# The dc_eigh API boundary: bad input fails fast with a typed error,
# never as a deep kernel RuntimeError.
# ---------------------------------------------------------------------------

def test_nan_input_raises_input_error_not_kernel_failure():
    rng = np.random.default_rng(0)
    d = rng.standard_normal(150)
    e = rng.standard_normal(149)
    d[10] = np.nan
    with pytest.raises(InputError, match=r"d\[10\] is nan"):
        dc_eigh(d, e)
    # InputError is a ValueError: pre-typed callers still catch it.
    with pytest.raises(ValueError):
        dc_eigh(d, e)


def test_inf_offdiag_rejected_on_threads_backend():
    rng = np.random.default_rng(1)
    d = rng.standard_normal(150)
    e = rng.standard_normal(149)
    e[42] = -np.inf
    with pytest.raises(InputError, match=r"e\[42\] is -inf"):
        dc_eigh(d, e, backend="threads")


@pytest.mark.parametrize("backend", ["bogus", "processes"])
def test_unknown_backend_rejected_with_valid_choices(backend):
    d, e = np.ones(50), np.full(49, 0.5)
    with pytest.raises(InputError, match="expected one of"):
        dc_eigh(d, e, backend=backend)
    with pytest.raises(InputError, match="expected one of"):
        SolverSession(backend=backend)


@pytest.mark.parametrize("backend", ["bogus", "processes"])
def test_dc_eigh_many_rejects_unknown_backend_before_solving(backend):
    # Regression: the serial loop (use_session=False) turned a bad
    # backend into one SolveFailure per problem instead of raising.
    problems = [(np.ones(50), np.full(49, 0.5))] * 2
    for use_session in (True, False):
        with pytest.raises(InputError, match="expected one of"):
            dc_eigh_many(problems, backend=backend,
                         use_session=use_session)


# ---------------------------------------------------------------------------
# Edge-case bugfix: the n==1 fast path honours `subset`.
# ---------------------------------------------------------------------------

def test_n1_fast_path_honours_subset():
    lam, V = dc_eigh([5.0], [])
    assert lam.shape == (1,) and V.shape == (1, 1)
    lam, V = dc_eigh([5.0], [], subset=[0])
    assert lam.shape == (1,) and V.shape == (1, 1)
    assert lam[0] == 5.0
    lam, V = dc_eigh([5.0], [], subset=[])
    assert lam.shape == (0,)
    assert V.shape == (1, 0)


def test_n1_subset_out_of_range():
    with pytest.raises(InputError):
        dc_eigh([5.0], [], subset=[1])


def test_empty_subset_general_path():
    rng = np.random.default_rng(2)
    d = rng.standard_normal(100)
    e = rng.standard_normal(99)
    lam, V = dc_eigh(d, e, subset=[])
    assert lam.shape == (0,)
    assert V.shape == (100, 0)
