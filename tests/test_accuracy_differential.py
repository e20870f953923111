"""Differential accuracy harness: the D&C solver against LAPACK.

Adversarial tridiagonals — glued Wilkinson matrices, tight clusters,
graded matrices, matrices scaled near overflow and underflow, and exact
splits (zeros in ``e``) — at the sizes where the partition tree and the
panel tiling change shape: n ∈ {1, 2, minpart−1, minpart, minpart+1}
and a multiple of the default panel width ±1.  One test per property,
each over every family:

* orthogonality and residual below the ``1e-15`` gate of
  ``tests/test_accuracy_table3.py``;
* eigenvalues within n ulps of ‖T‖ (max-abs entry) of
  ``scipy.linalg.lapack.dstevd`` and ``dsterf``, the ledger checker's
  rule;
* ``jobz='N'`` ≡ ``jobz='V'`` bitwise, and sequential ≡ threads bitwise;
* identical eigenvalues for every panel width at a fixed ``minpart``.

Properties the solver does not yet meet are strict xfails, so a fix
shows up as an unexpected pass.  The slow tier runs all 15 Table III types at n ∈ {2500, 5000} against
``dstevd`` with the Fig. 9 metrics and ``bench_fig9_accuracy.py``'s D&C
bound of 100·n·ε (``pytest -m slow``).
"""

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from repro import dc_eigh
from repro.analysis import orthogonality_error, tridiagonal_residual
from repro.core import DCOptions
from repro.matrices import MATRIX_TYPES, spectrum_of_type
from repro.matrices import glued_wilkinson as glued_wilkinson_matrix
from repro.matrices import test_matrix as table3_matrix

lapack = pytest.importorskip("scipy.linalg.lapack")

GATE = 1e-15                    # tests/test_accuracy_table3.py
EPS = np.finfo(np.float64).eps
MINPART = DCOptions().minpart   # 64
NB = DCOptions().effective_nb(128)  # 32, the default panel width here
SIZES = (1, 2, MINPART - 1, MINPART, MINPART + 1,
         4 * NB - 1, 4 * NB, 4 * NB + 1)


def _lapack_eigenvalues(d, e):
    """``dstevd`` (with vectors) and ``dsterf`` eigenvalues of (d, e)."""
    e = e if e.size else np.zeros(1)        # scipy wants len(e) >= 1
    lam_v, _, info_v = lapack.dstevd(d, e, compute_v=1)
    lam_n, info_n = lapack.dsterf(d, e)
    assert info_v == 0 and info_n == 0
    return lam_v, lam_n


def _norm(d, e) -> float:
    """‖T‖ as the ledger's checker takes it: the largest |entry|."""
    return max(float(np.max(np.abs(d))),
               float(np.max(np.abs(e))) if e.size else 0.0) or 1.0


# ---------------------------------------------------------------------------
# Adversarial families; each draws (d, e) of a given size n
# ---------------------------------------------------------------------------

def _glued(n, m, delta):
    """The leading n×n part of copies of Wilkinson's W⁺_{2m+1}
    (d = |i − m|, e = 1) glued by a tiny off-diagonal δ."""
    d, e = glued_wilkinson_matrix(-(-n // (2 * m + 1)), 2 * m + 1, delta)
    return d[:n], e[:max(0, n - 1)]


@st.composite
def glued_wilkinson(draw, n):
    """Glued Wilkinson matrices: close eigenvalue pairs, repeated per
    block."""
    m = draw(st.integers(1, 10))
    return _glued(n, m, 10.0 ** -draw(st.integers(3, 15)))


@st.composite
def tight_clusters(draw, n):
    """A few cluster centres, diagonal entries within 1e-12 of them and
    couplings from 1e-14 to 1e-6: clusters tighter than deflation
    tolerance next to ones just above it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    centres = rng.normal(size=draw(st.integers(1, 4)))
    d = centres[rng.integers(centres.size, size=n)] \
        + 1e-12 * rng.standard_normal(n)
    e = 10.0 ** -draw(st.integers(6, 14)) * rng.standard_normal(n - 1)
    return d, e


@st.composite
def graded(draw, n):
    """d_i = g^i, e_i = g^(i + 1/2) for 1e-3 ≤ g ≤ 0.5, graded
    downward or (reversed) upward; entries underflow to 0 at large i."""
    g = draw(st.floats(1e-3, 0.5))
    i = np.arange(n, dtype=float)
    d = g ** i
    e = g ** (i[:-1] + 0.5)
    if draw(st.booleans()):
        d, e = d[::-1].copy(), e[::-1].copy()
    return d, e


@st.composite
def scaled_extreme(draw, n):
    """A random tridiagonal scaled by 10^±(280–300): near overflow (its
    squares overflow) or near underflow (its squares underflow)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** (draw(st.sampled_from([-1, 1]))
                     * draw(st.integers(280, 300)))
    return scale * rng.standard_normal(n), \
        scale * rng.standard_normal(n - 1)


@st.composite
def exact_splits(draw, n):
    """A random tridiagonal with exact zeros in e — at random places
    and, for n > minpart, at the leaf cut itself."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    e[rng.random(n - 1) < draw(st.floats(0.0, 0.5))] = 0.0
    if n > MINPART and draw(st.booleans()):
        e[n // 2 - 1] = 0.0                 # the root cut
    return d, e


FAMILIES = {"glued_wilkinson": glued_wilkinson,
            "tight_clusters": tight_clusters, "graded": graded,
            "scaled_extreme": scaled_extreme, "exact_splits": exact_splits}


@st.composite
def _cases(draw, family):
    n = draw(st.sampled_from(SIZES))
    return draw(FAMILIES[family](n))


#: Derandomized, so the tier-1 gate draws the same cases on every run
#: and the strict xfails below are stable; a failing case is reported
#: as drawn, without shrinking.
CASES = settings(max_examples=12, deadline=None, derandomize=True,
                 phases=[Phase.generate])


def _xfail(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=reason)


def _assert_orthogonality_and_residual(d, e):
    lam, V = dc_eigh(d, e)
    assert np.all(np.diff(lam) >= 0)
    assert orthogonality_error(V) < GATE
    assert tridiagonal_residual(d, e, lam, V) < GATE


@pytest.mark.parametrize("family",
                         sorted(set(FAMILIES) - {"glued_wilkinson"}))
@CASES
@given(data=st.data())
def test_orthogonality_and_residual(family, data):
    _assert_orthogonality_and_residual(*data.draw(_cases(family)))


@_xfail("glued Wilkinson matrices miss the residual gate: 2.8e-6 at "
        "n=128 (m=3, glue 1e-12); orthogonality holds")
@example(case=_glued(4 * NB, 3, 1e-12))
@settings(CASES, phases=[Phase.explicit, Phase.generate])
@given(case=_cases("glued_wilkinson"))
def test_glued_wilkinson_orthogonality_and_residual(case):
    """The explicit case fails on every run, so the strict xfail does
    not depend on which cases the generator draws."""
    _assert_orthogonality_and_residual(*case)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@CASES
@given(data=st.data())
def test_eigenvalues_match_lapack(family, data):
    d, e = data.draw(_cases(family))
    lam, _ = dc_eigh(d, e, options=DCOptions(jobz="N"))
    norm = _norm(d, e)
    for ref in _lapack_eigenvalues(d, e):
        assert np.max(np.abs(lam - ref)) / (norm * EPS) <= d.shape[0]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@CASES
@given(data=st.data())
def test_bitwise_parity(family, data):
    """``jobz='N'`` ≡ ``jobz='V'`` and sequential ≡ threads, bitwise."""
    d, e = data.draw(_cases(family))
    lam, V = dc_eigh(d, e, backend="sequential")
    lam_n, V_n = dc_eigh(d, e, options=DCOptions(jobz="N"))
    assert V_n is None
    np.testing.assert_array_equal(lam_n, lam)
    lam_t, V_t = dc_eigh(d, e, backend="threads", n_workers=2)
    np.testing.assert_array_equal(lam_t, lam)
    np.testing.assert_array_equal(V_t, V)


@st.composite
def _retiled_cases(draw):
    d, e = draw(_cases(draw(st.sampled_from(sorted(FAMILIES)))))
    return d, e, draw(st.integers(1, d.shape[0]))


def _assert_panel_width_keeps_eigenvalues(d, e, nb):
    lam, _ = dc_eigh(d, e, options=DCOptions(jobz="N"))
    lam_nb, _ = dc_eigh(d, e, options=DCOptions(nb=nb, jobz="N"))
    np.testing.assert_array_equal(lam_nb, lam)


#: Wilkinson W⁺_3 blocks glued by 1e-4, n = minpart + 1, one-column
#: panels.
_W3_GLUED = (np.resize([1.0, 0.0, 1.0], MINPART + 1),
             np.where(np.arange(MINPART) % 3 == 2, 1e-4, 1.0), 1)


def test_one_root_panels_keep_eigenvalues():
    """Regression: LAED4 sweeps summed a lone active root (m = 1)
    pairwise and m >= 2 roots column by column, so one-column panels
    changed this case's eigenvalues.  The sweeps now reduce per root."""
    _assert_panel_width_keeps_eigenvalues(*_W3_GLUED)


@_xfail("the Gu vector depends on the panel split: ComputeLocalW forms "
        "a partial z-hat product per panel and ReduceW combines the "
        "panels' products, so the rounding of the product follows nb")
@example(case=(*_glued(129, 6, 1e-7), 86))    # 23 eigenvalues differ
@settings(CASES, phases=[Phase.explicit, Phase.generate])
@given(case=_retiled_cases())
def test_panel_width_does_not_change_eigenvalues(case):
    """Same ``minpart`` ⇒ same tree ⇒ the same eigenvalues for every
    panel width ``nb`` in [1, n], which retiles every merge."""
    _assert_panel_width_keeps_eigenvalues(*case)


@pytest.mark.parametrize("scale", [1e-3, 1e-10, 1e-100, 1e-300])
def test_small_norm_matrices_match_lapack(scale):
    """Regression: the merge's deflation tolerance 8ε·max(|d|, |z|)
    assumes ‖T‖ ≈ 1, so a matrix of small norm deflated nearly every
    column until ``Scale T`` scaled to unit norm, as ``dstedc`` does."""
    rng = np.random.default_rng(1)
    n = 4 * NB
    d, e = scale * rng.standard_normal(n), scale * rng.standard_normal(n - 1)
    lam, V = dc_eigh(d, e)
    assert orthogonality_error(V) < GATE
    assert tridiagonal_residual(d, e, lam, V) < GATE
    for ref in _lapack_eigenvalues(d, e):
        assert np.max(np.abs(lam - ref)) / (_norm(d, e) * EPS) <= n


# ---------------------------------------------------------------------------
# Slow tier: all 15 Table III types at realistic sizes (the Fig. 9 metric)
# ---------------------------------------------------------------------------

def _table3_tridiagonal(mtype: int, n: int, seed: int = 0):
    """The Table III matrix of ``mtype``: types 1–9 are their spectrum
    under a Haar-random similarity, as :func:`~repro.matrices.test_matrix`
    builds them, reduced by LAPACK ``dsytrd`` (the Python Householder
    takes minutes at n=5000); types 10–15 are tridiagonal already."""
    lam = spectrum_of_type(mtype, n, seed=seed)
    if lam is None:
        return table3_matrix(mtype, n, seed=seed)
    rng = np.random.default_rng(seed + mtype)
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q *= np.sign(np.diag(r))[None, :]           # Haar correction
    a = (q * lam[None, :]) @ q.T
    del q, r
    a += a.T
    a *= 0.5
    _, d, e, _, info = lapack.dsytrd(a, lower=1, overwrite_a=1)
    assert info == 0
    return d.copy(), e.copy()


@pytest.mark.slow
@pytest.mark.parametrize("n", [2500, 5000])
@pytest.mark.parametrize("mtype", MATRIX_TYPES)
def test_table3_against_dstevd_at_scale(mtype, n):
    d, e = _table3_tridiagonal(mtype, n)
    lam, V = dc_eigh(d, e)
    ref, _, info = lapack.dstevd(d, e, compute_v=1)
    assert info == 0
    bound = 100 * n * EPS       # bench_fig9_accuracy.py's D&C bound
    assert orthogonality_error(V) < bound
    assert tridiagonal_residual(d, e, lam, V) < bound
    assert np.max(np.abs(lam - ref)) / _norm(d, e) < bound
