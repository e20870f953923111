"""Tests for the MRRR solver stack (repro.mrrr)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mrrr import (bisect_eigenvalues, bisect_ldl, dqds_progressive,
                        dstqds, gershgorin, getvec, ldl_factor, mrrr_eigh,
                        sturm_count, sturm_count_ldl, twist_data)
from repro.mrrr.bisect import sturm_count_ldl_multi
from repro.mrrr.solver import _split_blocks, _tridiag_solve_shifted


def tridiag(d, e):
    T = np.diag(np.asarray(d, dtype=float))
    e = np.asarray(e, dtype=float)
    if e.size:
        T += np.diag(e, 1) + np.diag(e, -1)
    return T


# ---------------------------------------------------------------------------
# bisection / Sturm counts
# ---------------------------------------------------------------------------

def test_gershgorin_contains_spectrum():
    rng = np.random.default_rng(0)
    d = rng.normal(size=30)
    e = rng.normal(size=29)
    gl, gu = gershgorin(d, e)
    lam = np.linalg.eigvalsh(tridiag(d, e))
    assert gl <= lam[0] and lam[-1] <= gu


def test_sturm_count_matches_dense():
    rng = np.random.default_rng(1)
    d = rng.normal(size=25)
    e = rng.normal(size=24)
    lam = np.linalg.eigvalsh(tridiag(d, e))
    sigmas = np.linspace(lam[0] - 1, lam[-1] + 1, 37)
    counts = sturm_count(d, e, sigmas)
    ref = np.sum(lam[None, :] < sigmas[:, None], axis=1)
    np.testing.assert_array_equal(counts, ref)


def test_bisect_eigenvalues_accuracy():
    rng = np.random.default_rng(2)
    d = rng.normal(size=40)
    e = rng.normal(size=39)
    lam = bisect_eigenvalues(d, e, rtol=1e-13)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    np.testing.assert_allclose(lam, ref, atol=1e-11)


def test_bisect_subset():
    rng = np.random.default_rng(3)
    d = rng.normal(size=30)
    e = rng.normal(size=29)
    idx = np.array([0, 7, 29])
    lam = bisect_eigenvalues(d, e, indices=idx, rtol=1e-13)
    ref = np.linalg.eigvalsh(tridiag(d, e))[idx]
    np.testing.assert_allclose(lam, ref, atol=1e-11)


def test_sturm_count_ldl_matches_plain():
    rng = np.random.default_rng(4)
    d = rng.normal(size=20) + 5.0  # keep T - sigma0 definite at sigma0=0
    e = rng.normal(size=19) * 0.3
    rep = ldl_factor(d, e, 0.0)
    sig = np.linspace(0, 10, 23)
    np.testing.assert_array_equal(sturm_count_ldl(rep.d, rep.l, sig),
                                  sturm_count(d, e, sig))


def test_multi_rep_counts_match_single():
    rng = np.random.default_rng(5)
    d = rng.normal(size=15) + 4.0
    e = rng.normal(size=14) * 0.2
    repA = ldl_factor(d, e, 0.0)
    repB = ldl_factor(d + 1.0, e, 0.0)
    sig = np.array([2.0, 6.0])
    dmat = np.stack([repA.d, repB.d], axis=1)
    lmat = np.stack([repA.l, repB.l], axis=1)
    multi = sturm_count_ldl_multi(dmat, lmat, sig)
    assert multi[0] == sturm_count_ldl(repA.d, repA.l, sig[:1])[0]
    assert multi[1] == sturm_count_ldl(repB.d, repB.l, sig[1:])[0]


def test_bisect_ldl_refines_to_relative_accuracy():
    rng = np.random.default_rng(6)
    d = rng.normal(size=25) + 6.0
    e = rng.normal(size=24) * 0.5
    rep = ldl_factor(d, e, 0.0)
    ref = np.linalg.eigvalsh(tridiag(d, e))
    lam = bisect_ldl(rep.d, rep.l, np.arange(25),
                     np.zeros(25), np.full(25, ref[-1] * 1.5))
    np.testing.assert_allclose(lam, ref, rtol=1e-13)


# ---------------------------------------------------------------------------
# LDL / qds transforms
# ---------------------------------------------------------------------------

def test_ldl_factor_roundtrip():
    rng = np.random.default_rng(7)
    d = rng.normal(size=12) + 8.0
    e = rng.normal(size=11)
    rep = ldl_factor(d, e, 1.5)
    d2, e2 = rep.to_tridiagonal()
    np.testing.assert_allclose(d2, d - 1.5, atol=1e-12)
    np.testing.assert_allclose(e2, e, atol=1e-12)


def test_dstqds_shifts_spectrum():
    rng = np.random.default_rng(8)
    d = rng.normal(size=14) + 8.0
    e = rng.normal(size=13)
    rep = ldl_factor(d, e, 0.0)
    shifted, _ = dstqds(rep, 2.0)
    assert shifted.sigma == 2.0
    d2, e2 = shifted.to_tridiagonal()
    lam_shift = np.linalg.eigvalsh(tridiag(d2, e2))
    lam = np.linalg.eigvalsh(tridiag(d, e))
    np.testing.assert_allclose(lam_shift, lam - 2.0, atol=1e-10)


def test_dqds_progressive_inertia():
    # dminus signs give the same inertia as the stationary transform.
    rng = np.random.default_rng(9)
    d = rng.normal(size=16) + 6.0
    e = rng.normal(size=15)
    rep = ldl_factor(d, e, 0.0)
    for sig in (1.0, 5.0, 9.0):
        dminus, _, _ = dqds_progressive(rep, sig)
        neg = int(np.sum(dminus < 0))
        assert neg == sturm_count(d, e, sig)


def test_twist_gamma_endpoints():
    rng = np.random.default_rng(10)
    d = rng.normal(size=10) + 5.0
    e = rng.normal(size=9)
    rep = ldl_factor(d, e, 0.0)
    lam = float(np.linalg.eigvalsh(tridiag(d, e))[3])
    plus, dminus, uminus, gamma = twist_data(rep, lam)
    # At an exact eigenvalue some gamma must be ~0 relative to the scale.
    assert np.min(np.abs(gamma)) < 1e-10 * np.max(np.abs(d))


def test_getvec_single_eigenpair():
    rng = np.random.default_rng(11)
    d = rng.normal(size=20) + 9.0
    e = rng.normal(size=19)
    T = tridiag(d, e)
    lam_all = np.linalg.eigvalsh(T)
    rep = ldl_factor(d, e, 0.0)
    j = 7
    gap = min(lam_all[j] - lam_all[j - 1], lam_all[j + 1] - lam_all[j])
    z, lam_ref, _ = getvec(rep, float(lam_all[j]), gap)
    assert np.linalg.norm(T @ z - lam_ref * z) < 1e-11 * np.max(np.abs(d))


# ---------------------------------------------------------------------------
# tridiagonal solver used by the BI fallback
# ---------------------------------------------------------------------------

def test_tridiag_solve_shifted():
    rng = np.random.default_rng(12)
    for n in (2, 3, 10, 40):
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        b = rng.normal(size=n)
        sig = 0.37
        x = _tridiag_solve_shifted(d, e, sig, b)
        np.testing.assert_allclose((tridiag(d, e) - sig * np.eye(n)) @ x, b,
                                   atol=1e-9 * max(1, np.max(np.abs(b))))


def test_split_blocks():
    d = np.ones(6)
    e = np.array([0.5, 0.0, 0.5, 1e-20, 0.5])
    blocks = _split_blocks(d, e)
    assert blocks == [(0, 2), (2, 4), (4, 6)]


# ---------------------------------------------------------------------------
# full solver
# ---------------------------------------------------------------------------

def check(d, e, lam, V, tol=5e-12):
    n = len(d)
    T = tridiag(d, e)
    scale = max(1.0, np.max(np.abs(T)))
    assert np.all(np.diff(lam) >= -1e-300)
    assert np.max(np.abs(V.T @ V - np.eye(n))) < tol * n
    assert np.max(np.abs(T @ V - V * lam[None, :])) < tol * n * scale


@pytest.mark.parametrize("n", [1, 2, 3, 8, 60, 200])
def test_random_matrices(n):
    rng = np.random.default_rng(n)
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    lam, V = mrrr_eigh(d, e)
    check(d, e, lam, V)
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(tridiag(d, e)),
                               atol=1e-10 * max(1, n))


def test_wilkinson_near_duplicates():
    m = 25
    d = np.abs(np.arange(-m, m + 1)).astype(float)
    e = np.ones(2 * m)
    res = mrrr_eigh(d, e, full_result=True)
    check(d, e, res.lam, res.V)
    assert res.n_clusters > 0


def test_identical_eigenvalues_type2():
    n = 80
    d = np.ones(n)
    e = np.full(n - 1, 1e-13)
    lam, V = mrrr_eigh(d, e)
    check(d, e, lam, V)


def test_decoupled_blocks():
    rng = np.random.default_rng(13)
    d = rng.normal(size=50)
    e = rng.normal(size=49)
    e[24] = 0.0
    lam, V = mrrr_eigh(d, e)
    check(d, e, lam, V)


def test_work_records_form_a_forest():
    rng = np.random.default_rng(14)
    d = rng.normal(size=100)
    e = rng.normal(size=99)
    res = mrrr_eigh(d, e, full_result=True)
    assert len(res.records) > 0
    uids = {r.uid for r in res.records}
    for r in res.records:
        assert r.parent == -1 or (r.parent in uids and r.parent < r.uid)
        assert r.cost.flops >= 0
    names = {r.name for r in res.records}
    assert "Getvec" in names and "RefineInit" in names


def test_scaling_extreme():
    rng = np.random.default_rng(15)
    n = 40
    d = rng.normal(size=n) * 1e300
    e = rng.normal(size=n - 1) * 1e300
    lam, V = mrrr_eigh(d, e)
    assert np.max(np.abs(V.T @ V - np.eye(n))) < 1e-11
    ref = np.linalg.eigvalsh(tridiag(d / 1e300, e / 1e300)) * 1e300
    np.testing.assert_allclose(lam, ref, rtol=1e-9)


def test_bad_inputs():
    with pytest.raises(ValueError):
        mrrr_eigh(np.empty(0), np.empty(0))
    with pytest.raises(ValueError):
        mrrr_eigh(np.ones(3), np.ones(3))


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 60), st.integers(0, 2 ** 31 - 1))
def test_property_mrrr_random(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-5, 5, size=n)
    e = rng.uniform(-5, 5, size=n - 1)
    lam, V = mrrr_eigh(d, e)
    check(d, e, lam, V)
    assert np.sum(lam) == pytest.approx(np.sum(d), abs=1e-8 * n * 5)
