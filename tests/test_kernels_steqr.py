"""Tests for the QR-iteration leaf eigensolver (repro.kernels.steqr)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import DCContext, DCOptions
from repro.core.tree import build_tree
from repro.errors import ConvergenceError, InputError
from repro.kernels import steqr, steqr_rows, sterf
from repro.matrices import test_matrix as table3_matrix


def tridiag(d, e):
    T = np.diag(np.asarray(d, dtype=float))
    e = np.asarray(e, dtype=float)
    if e.size:
        T += np.diag(e, 1) + np.diag(e, -1)
    return T


def assert_valid_eig(d, e, lam, V, tol=5e-13):
    T = tridiag(d, e)
    n = len(d)
    scale = max(1.0, np.max(np.abs(T)))
    assert np.all(np.diff(lam) >= -1e-300), "eigenvalues not ascending"
    assert np.max(np.abs(V.T @ V - np.eye(n))) < tol * n
    assert np.max(np.abs(T @ V - V * lam[None, :])) < tol * n * scale


def test_sizes_one_and_two():
    lam, V = steqr([3.0], [])
    assert lam[0] == 3.0 and V[0, 0] == 1.0
    lam, V = steqr([1.0, 2.0], [0.5])
    assert_valid_eig([1.0, 2.0], [0.5], lam, V)


def test_diagonal_matrix():
    d = np.array([3.0, -1.0, 2.0, 0.0])
    lam, V = steqr(d, np.zeros(3))
    np.testing.assert_allclose(lam, np.sort(d))
    # Permutation matrix expected.
    assert np.allclose(np.abs(V) @ np.abs(V.T), np.eye(4))


def test_random_matrices_match_numpy():
    rng = np.random.default_rng(7)
    for n in (3, 10, 64, 150):
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        lam, V = steqr(d, e)
        lam_ref = np.linalg.eigvalsh(tridiag(d, e))
        np.testing.assert_allclose(lam, lam_ref, atol=1e-12 * n)
        assert_valid_eig(d, e, lam, V)


def test_wilkinson_matrix_pair_clusters():
    # W21+ has pairs of nearly equal eigenvalues — a classic QR stress.
    m = 10
    d = np.abs(np.arange(-m, m + 1)).astype(float)
    e = np.ones(2 * m)
    lam, V = steqr(d, e)
    assert_valid_eig(d, e, lam, V)


def test_122_toeplitz_known_eigenvalues():
    n = 40
    d = 2.0 * np.ones(n)
    e = np.ones(n - 1)
    lam, _ = steqr(d, e)
    ref = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    np.testing.assert_allclose(lam, np.sort(ref), atol=1e-12)


def test_eigenvalues_only_matches_full():
    rng = np.random.default_rng(3)
    d = rng.normal(size=30)
    e = rng.normal(size=29)
    np.testing.assert_allclose(sterf(d, e), steqr(d, e)[0], atol=1e-13)


def test_zero_offdiagonal_splitting():
    # e contains exact zeros: the matrix splits into independent blocks.
    d = np.array([1.0, 5.0, 2.0, -3.0, 0.5])
    e = np.array([0.3, 0.0, 0.1, 0.0])
    lam, V = steqr(d, e)
    assert_valid_eig(d, e, lam, V)


def test_graded_matrix():
    # Strongly graded entries exercise shift/underflow paths.
    n = 24
    d = 10.0 ** (-np.arange(n, dtype=float))
    e = 10.0 ** (-np.arange(1, n, dtype=float))
    lam, V = steqr(d, e)
    assert_valid_eig(d, e, lam, V, tol=1e-12)


def test_input_not_mutated():
    d = np.ones(5)
    e = 0.5 * np.ones(4)
    d0, e0 = d.copy(), e.copy()
    steqr(d, e)
    np.testing.assert_array_equal(d, d0)
    np.testing.assert_array_equal(e, e0)


def test_wrong_e_length_raises():
    with pytest.raises(ValueError):
        steqr(np.ones(4), np.ones(4))


@pytest.mark.parametrize("solve", [steqr, steqr_rows, sterf])
def test_non_finite_input_raises(solve):
    with pytest.raises(InputError):
        solve(np.array([np.nan, 1.0]), np.array([0.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2 ** 31 - 1))
def test_property_spectral_decomposition(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-5, 5, size=n)
    e = rng.uniform(-5, 5, size=n - 1)
    lam, V = steqr(d, e)
    assert_valid_eig(d, e, lam, V)
    # Trace and Frobenius norm are invariants of the spectrum.
    assert np.sum(lam) == pytest.approx(np.sum(d), abs=1e-10 * n)
    assert np.sum(lam ** 2) == pytest.approx(np.sum(d ** 2) + 2 * np.sum(e ** 2),
                                             rel=1e-10)


def _type1_retry_leaf():
    """First D&C leaf of the scaled type-1 matrix at n=256: the
    historical QL-direction failure."""
    from repro.kernels.scaling import scale_tridiagonal

    d, e = table3_matrix(1, 256)
    ds, es, _ = scale_tridiagonal(d, e)
    dl, el = ds[:64].copy(), es[:63].copy()
    dl[-1] -= abs(es[63])
    return dl, el


def test_graded_matrix_needs_reversed_sweeps():
    """Regression: Table III type 1 leaves (one large + many tiny
    eigenvalues, graded downward) stall the QL sweep direction; steqr
    must fall back to solving the reversed matrix (QR direction)."""
    dl, el = _type1_retry_leaf()
    lam, V = steqr(dl, el)
    assert_valid_eig(dl, el, lam, V, tol=1e-12)


# ---------------------------------------------------------------------------
# Bitwise pins against the numpy-scalar reference twin
# ---------------------------------------------------------------------------

_EPS_REF = np.finfo(np.float64).eps


def _tql2_ref(d, e, *, compute_v=True, max_sweeps=50):
    """The tql2 loop on numpy float64 scalars, updating columns of V.

    Reference for ``repro.kernels.steqr``, which must reproduce it bit
    for bit in every eigenvector mode."""
    d = np.array(d, dtype=np.float64, copy=True)
    n = d.shape[0]
    if np.asarray(e).shape[0] != max(0, n - 1):
        raise ValueError("e must have length n-1")
    ee = np.zeros(n, dtype=np.float64)
    if n > 1:
        ee[:n - 1] = e
    V = np.eye(n) if compute_v else None
    if n <= 1:
        return d, V

    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(ee[m]) <= _EPS_REF * dd:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise ConvergenceError(
                    f"steqr failed to converge for eigenvalue {l} "
                    f"after {max_sweeps} sweeps (n={n})")
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + ee[l] / (g + math.copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = math.hypot(f, g)
                ee[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    ee[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if compute_v:
                    col_i = V[:, i]
                    col_i1 = V[:, i + 1]
                    f2 = col_i1.copy()
                    col_i1[...] = s * col_i + c * f2
                    col_i[...] = c * col_i - s * f2
            if underflow:
                continue
            d[l] -= p
            ee[l] = g
            ee[m] = 0.0

    order = np.argsort(d, kind="stable")
    d = d[order]
    if compute_v:
        V = V[:, order]
    return d, V


def _steqr_ref(d, e, *, compute_v=True, max_sweeps=50):
    try:
        return _tql2_ref(d, e, compute_v=compute_v, max_sweeps=max_sweeps)
    except ConvergenceError:
        d = np.asarray(d, dtype=np.float64)
        e = np.asarray(e, dtype=np.float64)
        lam, V = _tql2_ref(d[::-1].copy(), e[::-1].copy(),
                           compute_v=compute_v, max_sweeps=2 * max_sweeps)
        return lam, (V[::-1, :] if V is not None else None)


def assert_bitwise_ref(d, e):
    """Full V, boundary rows and no-vectors all equal the reference."""
    lam_ref, V_ref = _steqr_ref(d, e)
    lam, V = steqr(d, e)
    assert np.array_equal(lam, lam_ref)
    assert np.array_equal(V, V_ref)
    lam_r, rows = steqr_rows(d, e)
    assert rows.shape == (2, len(d))
    assert np.array_equal(lam_r, lam_ref)
    assert np.array_equal(rows, V_ref[[0, -1]])
    lam_n, none = steqr(d, e, compute_v=False)
    assert none is None
    assert np.array_equal(lam_n, _steqr_ref(d, e, compute_v=False)[0])
    assert np.array_equal(lam_n, lam_ref)


def _table3_leaves(mtype: int, n: int = 300, minpart: int = 64):
    """(d, e) of every D&C leaf, as the STEDC tasks see them: scaled,
    with the Eq. 5 corner corrections of ``DCContext.t_partition``."""
    d, e = table3_matrix(mtype, n)
    ctx = DCContext(d, e, DCOptions(minpart=minpart))
    ctx.t_scale()
    tree = build_tree(n, minpart)
    ctx.t_partition(tree)
    return [(ctx.d_adj[leaf.lo:leaf.hi].copy(),
             ctx.e[leaf.lo:leaf.hi - 1].copy()) for leaf in tree.leaves()]


@pytest.mark.parametrize("mtype", range(1, 16))
def test_table3_leaves_bitwise_equal_reference(mtype):
    leaves = _table3_leaves(mtype)
    assert len(leaves) == 8
    for d, e in leaves:
        assert_bitwise_ref(d, e)


@pytest.mark.parametrize("d, e", [
    ([3.0], []),
    ([1.0, 2.0], [0.5]),
    ([1.0, 2.0], [0.0]),
    ([2.0, -1.0, 0.5], [1e-3, 4.0]),
    ([0.0, 0.0, 0.0], [0.0, 0.0]),
    ([1.0, 5.0, 2.0, -3.0, 0.5], [0.3, 0.0, 0.1, 0.0]),
    ([4.0, 4.0, 4.0, 4.0, 4.0, 4.0], [1.0, 0.0, 1.0, 0.0, 1.0]),
])
def test_small_sizes_and_exact_splits_bitwise_equal_reference(d, e):
    assert_bitwise_ref(np.array(d), np.array(e))


def test_reversed_retry_swaps_boundary_rows():
    """Type-1 leaf whose QL sweeps stall: the retry solves the reversed
    matrix, so its first and last rows come back swapped."""
    dl, el = _type1_retry_leaf()
    with pytest.raises(ConvergenceError):
        _tql2_ref(dl, el)
    assert_bitwise_ref(dl, el)


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


@st.composite
def _tridiagonals(draw):
    n = draw(st.integers(1, 24))
    return (draw(hnp.arrays(np.float64, n, elements=_finite)),
            draw(hnp.arrays(np.float64, n - 1, elements=_finite)))


@settings(max_examples=60, deadline=None)
@given(_tridiagonals())
def test_property_bitwise_equal_reference(de):
    d, e = de
    try:
        _steqr_ref(d, e)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            steqr(d, e)
        with pytest.raises(ConvergenceError):
            steqr_rows(d, e)
        return
    assert_bitwise_ref(d, e)
