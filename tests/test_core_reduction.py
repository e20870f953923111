"""Tests for the task-flow tridiagonalization (repro.core.reduction)."""

import numpy as np
import pytest

from repro.core import eigh, taskflow_tridiagonalize
from repro.errors import InputError
from repro.kernels import apply_q, tridiagonalize


def sym(rng, n):
    A = rng.normal(size=(n, n))
    return 0.5 * (A + A.T)


@pytest.mark.parametrize("backend", ["sequential", "threads", "simulated"])
def test_reduction_backends(backend):
    rng = np.random.default_rng(1)
    n = 100
    A = sym(rng, n)
    tri = taskflow_tridiagonalize(A, backend=backend, n_workers=4, tile=32)
    T = np.diag(tri.d) + np.diag(tri.e, 1) + np.diag(tri.e, -1)
    Q = tri.q()
    assert np.max(np.abs(Q @ T @ Q.T - A)) < 1e-12 * n
    assert np.max(np.abs(Q.T @ Q - np.eye(n))) < 1e-13 * n


def test_matches_sequential_kernel():
    rng = np.random.default_rng(2)
    A = sym(rng, 70)
    t1 = taskflow_tridiagonalize(A, tile=16)
    t2 = tridiagonalize(A)
    np.testing.assert_allclose(t1.d, t2.d, atol=1e-12)
    np.testing.assert_allclose(np.abs(t1.e), np.abs(t2.e), atol=1e-12)


def test_apply_q_contract():
    rng = np.random.default_rng(3)
    n = 60
    A = sym(rng, n)
    tri = taskflow_tridiagonalize(A, tile=20)
    C = rng.normal(size=(n, 3))
    np.testing.assert_allclose(apply_q(tri, C), tri.q() @ C, atol=1e-12)


def test_task_census_and_trace():
    rng = np.random.default_rng(4)
    n = 64
    A = sym(rng, n)
    tri, trace, graph = taskflow_tridiagonalize(
        A, backend="simulated", tile=16, full_result=True)
    counts = graph.kernel_counts()
    assert counts["PanelFactor"] == n - 2
    assert counts["SymvFinish"] == n - 2
    assert counts["SymvPart"] == counts["Rank2Update"]
    graph.validate_acyclic()
    assert trace.makespan > 0


def test_reduction_parallelizes_on_simulator():
    rng = np.random.default_rng(5)
    n = 160
    A = sym(rng, n)
    _, tr16, g = taskflow_tridiagonalize(A, backend="simulated",
                                         tile=16, full_result=True)
    from repro.runtime import Machine, SimulatedMachine
    t1 = SimulatedMachine(Machine(), n_workers=1,
                          execute=False).run(g).makespan
    # The panel chain is serial but the symv/update work parallelizes.
    assert t1 / tr16.makespan > 2.0


def test_small_and_invalid():
    lam = taskflow_tridiagonalize(np.array([[3.0]]))
    assert lam.d[0] == 3.0
    with pytest.raises(ValueError):
        taskflow_tridiagonalize(np.ones((2, 3)))
    with pytest.raises(ValueError):
        taskflow_tridiagonalize(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_reduction_rejects_processes_backend():
    # Regression: the reduction's tasks are closures over the working
    # matrix, which a process pool cannot pickle; this used to surface
    # as a TaskFailure from the first task instead of an input error.
    A = sym(np.random.default_rng(6), 120)
    with pytest.raises(InputError, match="processes"):
        taskflow_tridiagonalize(A, backend="processes", n_workers=2)


def test_dense_eigh_processes_bitwise_equals_threads():
    # Regression: eigh(..., backend="processes") failed pickling its
    # back-transform closures.  The tridiagonal solve now runs on the
    # process pool and the back-transform on threads.
    A = sym(np.random.default_rng(7), 120)
    lam_t, V_t = eigh(A, backend="threads", n_workers=2)
    lam_p, V_p = eigh(A, backend="processes", n_workers=2)
    np.testing.assert_array_equal(lam_t, lam_p)
    np.testing.assert_array_equal(V_t, V_p)
    assert np.max(np.abs(A @ V_p - V_p * lam_p)) < 1e-12 * 120
