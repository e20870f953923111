"""Tests for the comparison baselines (repro.baselines)."""

import numpy as np
import pytest

from repro import dc_eigh
from repro.baselines import (bisect_invit_eigh, lapack_dc_eigh,
                             lapack_dc_makespan, scalapack_dc_eigh,
                             scalapack_dc_makespan, CommModel)


def tridiag(d, e):
    return np.diag(np.asarray(d, float)) + np.diag(e, 1) + np.diag(e, -1)


def test_lapack_dc_matches_taskflow_numerics():
    rng = np.random.default_rng(0)
    n = 150
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    lam_ref, V_ref = dc_eigh(d, e)
    lam, V = lapack_dc_eigh(d, e)
    np.testing.assert_array_equal(lam, lam_ref)
    np.testing.assert_array_equal(V, V_ref)


def test_lapack_dc_slower_than_taskflow_on_simulator():
    rng = np.random.default_rng(1)
    n = 600
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    t_mkl = lapack_dc_makespan(d, e, n_workers=16)
    res = dc_eigh(d, e, backend="simulated", full_result=True)
    # The task-flow variant must win (paper Fig. 6: 2-6x).
    assert res.makespan < t_mkl
    assert t_mkl / res.makespan > 1.3


def test_scalapack_numerics_and_model():
    rng = np.random.default_rng(2)
    n = 300
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    lam, V = scalapack_dc_eigh(d, e)
    lam_ref, _ = dc_eigh(d, e)
    np.testing.assert_array_equal(lam, lam_ref)
    t16 = scalapack_dc_makespan(d, e, n_ranks=16)
    t1 = scalapack_dc_makespan(d, e, n_ranks=1)
    assert 0 < t16 < t1       # distributed model does scale
    # The paper's task-flow beats the ScaLAPACK model (Fig. 7: ~2x).
    res = dc_eigh(d, e, backend="simulated", full_result=True)
    assert res.makespan < t16


def test_scalapack_comm_model_monotone():
    rng = np.random.default_rng(3)
    n = 200
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    slow_net = CommModel(alpha=1e-3, beta=1e-6)
    fast_net = CommModel(alpha=1e-7, beta=1e-11)
    assert scalapack_dc_makespan(d, e, comm=slow_net) > \
        scalapack_dc_makespan(d, e, comm=fast_net)


def test_bisect_invit_full_spectrum():
    rng = np.random.default_rng(4)
    n = 120
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    lam, V = bisect_invit_eigh(d, e)
    T = tridiag(d, e)
    assert np.max(np.abs(V.T @ V - np.eye(n))) < 1e-10 * n
    assert np.max(np.abs(T @ V - V * lam[None, :])) < 1e-9 * n
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(T), atol=1e-10)


def test_bisect_invit_subset():
    rng = np.random.default_rng(5)
    n = 80
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    idx = np.array([0, 10, 41, 79])
    lam, V = bisect_invit_eigh(d, e, indices=idx)
    T = tridiag(d, e)
    ref = np.linalg.eigvalsh(T)[idx]
    np.testing.assert_allclose(lam, ref, atol=1e-10)
    assert V.shape == (n, 4)
    assert np.max(np.abs(T @ V - V * lam[None, :])) < 1e-9 * n


def test_bisect_invit_clustered():
    # Close eigenvalues must still give orthogonal vectors (MGS groups).
    m = 20
    d = np.abs(np.arange(-m, m + 1)).astype(float)
    e = np.ones(2 * m)
    lam, V = bisect_invit_eigh(d, e)
    n = 2 * m + 1
    assert np.max(np.abs(V.T @ V - np.eye(n))) < 1e-8 * n


def test_bisect_invit_bad_inputs():
    with pytest.raises(ValueError):
        bisect_invit_eigh(np.empty(0), np.empty(0))
    with pytest.raises(ValueError):
        bisect_invit_eigh(np.ones(3), np.ones(3))
