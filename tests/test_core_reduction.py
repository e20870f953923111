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
    # There is no processes backend: the name is rejected like any
    # unknown backend, as an input error before any task runs.
    A = sym(np.random.default_rng(6), 120)
    with pytest.raises(InputError, match="processes"):
        taskflow_tridiagonalize(A, backend="processes", n_workers=2)


@pytest.mark.parametrize("backend", ["bogus", "processes"])
def test_dense_eigh_rejects_unknown_backend_before_reduction(backend,
                                                             monkeypatch):
    # Regression: the whole Householder reduction ran before dc_eigh
    # rejected the backend name.
    def reduction_must_not_run(a):
        raise AssertionError("tridiagonalize ran with an invalid backend")

    monkeypatch.setattr("repro.core.dense.tridiagonalize",
                        reduction_must_not_run)
    A = sym(np.random.default_rng(7), 120)
    with pytest.raises(InputError, match="expected one of"):
        eigh(A, backend=backend)
