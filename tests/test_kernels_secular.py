"""Tests for the secular-equation solver (repro.kernels.secular)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.merge as merge_module
from repro import dc_eigh
from repro.errors import ConvergenceError
from repro.kernels import (solve_secular, delta_matrix,
                           eigenvalues_from_roots)
from repro.matrices import glued_wilkinson


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


def _glued_merge_system(monkeypatch):
    """``(dlamda, z, rho)`` of the one merge (k=80) of the leading
    128×128 part of W⁺₇ blocks glued by 1e-12, as its LAED4 tasks see
    them."""
    systems = []
    solve = merge_module.solve_secular

    def record(dlamda, z, rho, index=None, **kw):
        systems.append((dlamda.copy(), z.copy(), rho))
        return solve(dlamda, z, rho, index=index, **kw)

    monkeypatch.setattr(merge_module, "solve_secular", record)
    d, e = glued_wilkinson(19, 7, 1e-12)
    dc_eigh(d[:128], e[:127])
    assert len({s[0].tobytes() for s in systems}) == 1
    return systems[0]


def test_origin_is_on_the_roots_side_of_the_exact_midpoint(monkeypatch):
    """Each interior root's origin is the pole on its side of the exact
    midpoint of its interval, the side given by the sign of w there in
    exact rational arithmetic.  In this merge root 27 lies 6.9e-15 from
    d_28 in a gap of 1.39e-14, and the float midpoint fl(d_27 + gap/2)
    sits 5.6e-17 past the exact one, on the root's other side."""
    dlamda, z, rho = _glued_merge_system(monkeypatch)
    k = dlamda.size
    assert k == 80
    r = solve_secular(dlamda, z, rho)
    d = [Fraction(x) for x in dlamda]
    zsq = [Fraction(x) ** 2 for x in z]
    rho = Fraction(rho)
    wrong = []
    for j in range(k - 1):
        mid = (d[j] + d[j + 1]) / 2
        w = 1 + rho * sum(zi / (di - mid) for di, zi in zip(d, zsq))
        # w increases across the interval: w(mid) > 0 puts the root left
        # of the midpoint, nearer d_j.
        if w != 0 and r.orig[j] != (j if w > 0 else j + 1):
            wrong.append(j)
    assert wrong == []


def _one_root_reference(dlamda, zsq, rho, j, max_iter=400):
    """Root j of the secular equation, one root at a time in scalar
    arithmetic: ``(orig, tau, sweeps)``.  It spells out the arithmetic
    of ``solve_secular`` operation by operation, and each pole sum is
    the same contraction ``einsum("k,k->")`` of one row, so the
    vectorized kernel must match it bit for bit."""
    k = dlamda.size
    eps = np.finfo(np.float64).eps
    last = j == k - 1
    gap = rho if last else dlamda[j + 1] - dlamda[j]
    half = 0.5 * gap
    w_mid = 1.0 + rho * np.einsum(
        "k,k->", 1.0 / ((dlamda - dlamda[j]) - half), zsq)
    left = w_mid >= 0.0
    orig = j if left or last else j + 1
    if left:
        lo, hi = 0.0, half
    elif last:
        lo, hi = half, gap
    else:
        lo, hi = -half, 0.0
    tau = 0.5 * (lo + hi)
    if tau == 0.0:
        tau = 0.25 * (hi - lo) + lo
    p1 = k - 2 if last else j
    base = dlamda - dlamda[orig]
    for sweep in range(1, max_iter + 1):
        inv = 1.0 / (base - tau)
        ainv = np.abs(inv)
        w = 1.0 + rho * np.einsum("k,k->", inv, zsq)
        tol = eps * k * (3.0 + rho * np.einsum("k,k->", ainv, zsq))
        if w > 0.0:
            hi = min(hi, tau)
        else:
            lo = max(lo, tau)
        if abs(w) <= tol or hi - lo <= 8.0 * eps * abs(tau):
            return orig, tau, sweep
        d1 = base[p1] - tau
        d2 = base[p1 + 1] - tau
        dphi_dpsi = rho * np.einsum("k,k->", inv * ainv, zsq)
        dw = rho * np.einsum("k,k->", ainv * ainv, zsq)
        if last:
            dphi = rho * zsq[k - 1] / (d2 * d2)
            dpsi = dw - dphi
        else:
            dpsi = 0.5 * (dw - dphi_dpsi)
            dphi = 0.5 * (dw + dphi_dpsi)
        a = d1 * d1 * dpsi
        b = d2 * d2 * dphi
        c = w - d1 * dpsi - d2 * dphi
        qb = c * (d1 + d2) + a + b
        qc = c * d1 * d2 + a * d2 + b * d1
        sq = math.sqrt(max(qb * qb - 4.0 * c * qc, 0.0))
        denom = qb + (sq if qb >= 0.0 else -sq)
        eta = 2.0 * qc / denom if denom != 0.0 else 0.0
        tnew = tau + eta
        if not (math.isfinite(tnew) and lo < tnew < hi and eta != 0.0):
            tnew = 0.5 * (lo + hi)
        if tnew == 0.0:
            tnew = 0.5 * (lo + hi) * 0.5 + 0.25 * hi
        tau = tnew
    raise ConvergenceError(f"root {j} did not converge")


def _assert_matches_one_root_reference(dlamda, z, rho, index):
    r = solve_secular(dlamda, z, rho, index=index)
    ref = [_one_root_reference(dlamda, z * z, rho, j) for j in index]
    np.testing.assert_array_equal(r.orig, [x[0] for x in ref])
    assert r.tau.tobytes() == np.array([x[1] for x in ref]).tobytes()
    np.testing.assert_array_equal(r.root_iterations, [x[2] for x in ref])
    assert r.iterations == max(x[2] for x in ref)


@pytest.mark.parametrize("k", [2, 3, 65, 300])
def test_sweep_matches_one_root_reference(k):
    """The vectorized sweep, with its compacted active set and fused
    contractions, gives every root the bits and sweep count of the
    scalar one-root iteration, for roots listed in any order."""
    rng = np.random.default_rng(100 + k)
    d, z, rho = random_system(rng, k)
    _assert_matches_one_root_reference(d, z, rho, rng.permutation(k))


def test_glued_merge_matches_one_root_reference(monkeypatch):
    """The same on the glued merge, whose roots 24, 27 and 60 lie
    within an ulp of |d_j| of their intervals' midpoints."""
    dlamda, z, rho = _glued_merge_system(monkeypatch)
    _assert_matches_one_root_reference(dlamda, z, rho,
                                       np.arange(dlamda.size))


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
    """A root's (orig, tau) and sweep count are bitwise the same
    whichever roots share its LAED4 panel, in whatever order the panel
    lists them: panels of 1, 7, 32 and k roots, the last one included,
    and panels of 7 listed backwards from root k−1 (so the last root's
    φ term must follow the root, not its place in ``index``), all
    reproduce one whole-system call.  A panel's ``iterations`` is the
    largest sweep count of its roots."""
    rng = np.random.default_rng(k)
    d, z, rho = random_system(rng, k)
    full = solve_secular(d, z, rho)
    assert full.iterations == full.root_iterations.max()
    splits = [[np.arange(p0, min(p0 + nb, k)) for p0 in range(0, k, nb)]
              for nb in (1, 7, 32, k)]
    splits.append([idx[::-1] for idx in reversed(splits[1])])
    assert splits[-1][0][0] == k - 1
    for panels in splits:
        orig = np.empty(k, dtype=np.intp)
        tau = np.empty(k)
        sweeps = np.empty(k, dtype=np.int64)
        for idx in panels:
            part = solve_secular(d, z, rho, index=idx)
            assert part.iterations == part.root_iterations.max()
            orig[idx] = part.orig
            tau[idx] = part.tau
            sweeps[idx] = part.root_iterations
        np.testing.assert_array_equal(orig, full.orig)
        np.testing.assert_array_equal(tau, full.tau)
        np.testing.assert_array_equal(sweeps, full.root_iterations)


def test_convergence_error_names_stuck_roots_by_index():
    """Roots still active after ``max_iter`` sweeps are named by their
    ``index`` values, in the order ``index`` lists them."""
    rng = np.random.default_rng(4)
    d, z, rho = random_system(rng, 50)
    idx = np.array([49, 7, 30, 2, 18, 41])
    r = solve_secular(d, z, rho, index=idx)
    cap = r.iterations - 1
    stuck = idx[r.root_iterations > cap]
    assert 0 < stuck.size < idx.size
    with pytest.raises(ConvergenceError) as info:
        solve_secular(d, z, rho, index=idx, max_iter=cap)
    assert f"root(s) {stuck.tolist()} after {cap} sweeps" in str(info.value)
    with pytest.raises(ConvergenceError, match=r"root\(s\) \[49, 7, 30, 2, "
                       r"18, 41\] after 0 sweeps"):
        solve_secular(d, z, rho, index=idx, max_iter=0)


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
