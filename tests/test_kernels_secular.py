"""Tests for the secular-equation solver (repro.kernels.secular)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import (solve_secular, delta_matrix,
                           eigenvalues_from_roots)


def random_system(rng, k, min_gap=1e-3):
    d = np.sort(rng.normal(size=k))
    d += np.arange(k) * min_gap
    z = rng.normal(size=k)
    z[z == 0.0] = 1.0
    z /= np.linalg.norm(z)
    rho = float(np.abs(rng.normal()) + 0.1)
    return d, z, rho


def reference_eigs(d, z, rho):
    return np.linalg.eigvalsh(np.diag(d) + rho * np.outer(z, z))


def test_k1_closed_form():
    r = solve_secular(np.array([2.0]), np.array([1.0]), 0.5)
    assert r.lam[0] == pytest.approx(2.5)
    assert r.tau[0] == pytest.approx(0.5)


def test_k2_exact():
    d = np.array([0.0, 1.0])
    z = np.array([1.0, 1.0]) / np.sqrt(2)
    r = solve_secular(d, z, 1.0)
    ref = reference_eigs(d, z, 1.0)
    np.testing.assert_allclose(r.lam, ref, atol=1e-15)


@pytest.mark.parametrize("k", [3, 7, 50, 300])
def test_matches_dense_reference(k):
    rng = np.random.default_rng(k)
    d, z, rho = random_system(rng, k)
    r = solve_secular(d, z, rho)
    ref = reference_eigs(d, z, rho)
    scale = np.abs(d).max() + rho
    np.testing.assert_allclose(r.lam, ref, atol=5e-14 * scale * k)


def test_interlacing_invariant():
    rng = np.random.default_rng(11)
    d, z, rho = random_system(rng, 80)
    r = solve_secular(d, z, rho)
    assert np.all(r.lam[:-1] > d[:-1])
    assert np.all(r.lam[:-1] < d[1:])
    assert d[-1] < r.lam[-1] < d[-1] + rho + 1e-14


def test_origin_is_nearest_pole():
    rng = np.random.default_rng(5)
    d, z, rho = random_system(rng, 40)
    r = solve_secular(d, z, rho)
    for j in range(40):
        dist_orig = abs(r.lam[j] - d[r.orig[j]])
        dist_other = np.min(np.abs(np.delete(d, r.orig[j]) - r.lam[j]))
        # Origin is within a factor ~1 of the true nearest pole (the
        # midpoint test puts the root in the origin's half interval).
        assert dist_orig <= dist_other + 1e-12


def test_subset_index_solve_matches_full():
    rng = np.random.default_rng(9)
    d, z, rho = random_system(rng, 60)
    full = solve_secular(d, z, rho)
    idx = np.array([0, 5, 17, 42, 59])
    part = solve_secular(d, z, rho, index=idx)
    np.testing.assert_allclose(part.lam, full.lam[idx], rtol=0, atol=1e-14)
    np.testing.assert_array_equal(part.orig, full.orig[idx])


@pytest.mark.parametrize("k", [2, 65, 300, 1800])
def test_roots_do_not_depend_on_panel(k):
    """A root's (orig, tau) are bitwise the same whichever roots share
    its LAED4 panel: panels of 1, 7, 32 and k roots, the last one
    included, reproduce one whole-system call."""
    rng = np.random.default_rng(k)
    d, z, rho = random_system(rng, k)
    full = solve_secular(d, z, rho)
    for nb in (1, 7, 32, k):
        orig = np.empty(k, dtype=np.intp)
        tau = np.empty(k)
        for p0 in range(0, k, nb):
            idx = np.arange(p0, min(p0 + nb, k))
            part = solve_secular(d, z, rho, index=idx)
            orig[idx] = part.orig
            tau[idx] = part.tau
        np.testing.assert_array_equal(orig, full.orig)
        np.testing.assert_array_equal(tau, full.tau)


def test_tau_relative_accuracy_near_pole():
    # A root hugging its pole: τ must retain high *relative* accuracy.
    d = np.array([0.0, 1.0, 2.0])
    z = np.array([1e-9, 1.0, 1.0])
    z /= np.linalg.norm(z)
    rho = 1.0
    r = solve_secular(d, z, rho)
    # Residual in the secular function at the stable representation:
    dm = delta_matrix(d, r.orig, r.tau)
    w = 1.0 + rho * np.sum((z * z)[:, None] / dm, axis=0)
    assert np.max(np.abs(w)) < 1e-10
    # First root barely moves off d_0: τ_0 ≈ rho*z_0² (tiny but nonzero).
    assert 0 < r.tau[0] if r.orig[0] == 0 else r.tau[0] < 0


def test_clustered_poles():
    rng = np.random.default_rng(2)
    d = np.sort(np.concatenate([1e-10 * np.arange(10),
                                1.0 + 1e-10 * np.arange(10)]))
    z = rng.normal(size=20)
    z /= np.linalg.norm(z)
    r = solve_secular(d, z, 0.7)
    ref = reference_eigs(d, z, 0.7)
    np.testing.assert_allclose(r.lam, ref, atol=1e-12)


def test_rho_must_be_positive():
    with pytest.raises(ValueError):
        solve_secular(np.array([0.0, 1.0]), np.array([0.7, 0.7]), -1.0)


def test_delta_matrix_consistency():
    rng = np.random.default_rng(4)
    d, z, rho = random_system(rng, 30)
    r = solve_secular(d, z, rho)
    dm = delta_matrix(d, r.orig, r.tau)
    lam = eigenvalues_from_roots(d, r.orig, r.tau)
    np.testing.assert_allclose(dm, d[:, None] - lam[None, :],
                               rtol=0, atol=1e-9)
    # Exactness at the origin pole: Δ[orig_j, j] == −τ_j bit for bit.
    for j in range(30):
        assert dm[r.orig[j], j] == -r.tau[j]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2 ** 31 - 1),
       st.floats(0.01, 100.0))
def test_property_roots_solve_secular_equation(k, seed, rho):
    rng = np.random.default_rng(seed)
    d = np.sort(rng.uniform(-10, 10, size=k))
    d += np.arange(k) * 1e-2
    z = rng.uniform(0.1, 1.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    z /= np.linalg.norm(z)
    r = solve_secular(d, z, rho)
    dm = delta_matrix(d, r.orig, r.tau)
    w = 1.0 + rho * np.sum((z * z)[:, None] / dm, axis=0)
    wp = rho * np.sum((z * z)[:, None] / (dm * dm), axis=0)
    # Residual small relative to the local derivative scale.
    assert np.all(np.abs(w) <= 1e-8 * np.maximum(1.0, wp * np.abs(r.tau)))
    # Interlacing.
    assert np.all(r.lam[:-1] > d[:-1]) and np.all(r.lam[:-1] < d[1:])
    assert d[-1] < r.lam[-1] <= d[-1] + rho * 1.0000001
    # Sum rule: trace(D + rho z zᵀ) = Σλ.
    assert np.sum(r.lam) == pytest.approx(np.sum(d) + rho, rel=1e-9)
