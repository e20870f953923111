"""Graceful degradation: STEQR fallback when the secular solve fails."""

import numpy as np
import pytest

from repro import dc_eigh
from repro.analysis import orthogonality_error, tridiagonal_residual
from repro.core.options import DCOptions
from repro.errors import ConvergenceError
from repro.kernels.secular import solve_secular
from repro.obs import solve_metrics

GATE = 1e-13   # both metrics are normalized by n; paper scale is ~1e-16


def _problem(n=220, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(n - 1)


@pytest.fixture
def broken_secular(monkeypatch):
    """Make every secular solve fail (forces the fallback on all merges)."""
    def boom(*args, **kwargs):
        raise ConvergenceError("synthetic secular failure")
    monkeypatch.setattr("repro.core.merge.solve_secular", boom)


@pytest.fixture
def broken_root_secular(monkeypatch):
    """Fail the secular solve only for the (root-sized) largest merge."""
    calls = {}

    def sometimes(dlamda, *args, **kwargs):
        if dlamda.shape[0] > 110:     # only the root merge is this big
            raise ConvergenceError("synthetic secular failure at root")
        return solve_secular(dlamda, *args, **kwargs)

    monkeypatch.setattr("repro.core.merge.solve_secular", sometimes)
    return calls


@pytest.mark.parametrize("backend", ["sequential", "threads"])
def test_fallback_passes_accuracy_gate(broken_secular, backend):
    d, e = _problem()
    lam, V = dc_eigh(d, e, backend=backend)
    assert np.all(np.diff(lam) >= 0)
    assert orthogonality_error(V) < GATE
    assert tridiagonal_residual(d, e, lam, V) < GATE


@pytest.mark.parametrize("backend", ["sequential", "threads"])
def test_fallback_on_root_merge_only(broken_root_secular, backend):
    d, e = _problem()
    lam, V = dc_eigh(d, e, backend=backend)
    assert orthogonality_error(V) < GATE
    assert tridiagonal_residual(d, e, lam, V) < GATE
    lam_ref = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    np.testing.assert_allclose(lam, lam_ref, atol=1e-10)


def test_fallback_counted_in_telemetry(broken_secular):
    d, e = _problem()
    res = dc_eigh(d, e, full_result=True)
    stats = res.info.ctx.merge_stats
    assert stats and all(s.fallback for s in stats)
    counters = solve_metrics(res).counters
    assert counters["solve.fallbacks"] == len(stats)
    # No secular root was solved, so no secular name has a value.
    assert not {"secular.roots", "secular.sweeps"} & set(counters)
    assert orthogonality_error(res.V) < GATE


def test_no_fallback_on_healthy_solve():
    d, e = _problem()
    res = dc_eigh(d, e, full_result=True)
    assert "solve.fallbacks" not in solve_metrics(res).counters
    assert not any(s.fallback for s in res.info.ctx.merge_stats)


def test_fallback_backends_agree(broken_secular):
    d, e = _problem(seed=3)
    lam_s, V_s = dc_eigh(d, e, backend="sequential")
    lam_t, V_t = dc_eigh(d, e, backend="threads")
    np.testing.assert_array_equal(lam_s, lam_t)
    np.testing.assert_array_equal(V_s, V_t)


def test_nonfinite_secular_roots_trigger_fallback(monkeypatch):
    """Non-finite roots (not just raised errors) also degrade gracefully."""
    def poisoned(dlamda, *args, **kwargs):
        res = solve_secular(dlamda, *args, **kwargs)
        res.tau[...] = np.nan
        return res

    monkeypatch.setattr("repro.core.merge.solve_secular", poisoned)
    d, e = _problem(seed=5)
    lam, V = dc_eigh(d, e)
    assert np.isfinite(lam).all() and np.isfinite(V).all()
    assert orthogonality_error(V) < GATE
    assert tridiagonal_residual(d, e, lam, V) < GATE


@pytest.mark.parametrize("backend", ["sequential", "threads"])
def test_fallback_under_graph_reuse(broken_secular, backend):
    """The per-merge writer countdown is per-solve state: repeated
    solves on the cached DAG template must each fall back cleanly."""
    d, e = _problem(seed=9)
    opts = DCOptions(reuse_graph=True)
    for _ in range(3):
        lam, V = dc_eigh(d, e, options=opts, backend=backend)
        assert orthogonality_error(V) < GATE
        assert tridiagonal_residual(d, e, lam, V) < GATE


def test_fallback_with_subset(broken_secular):
    d, e = _problem(seed=7)
    lam_full, _ = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    sub = [0, 5, 100]
    lam, V = dc_eigh(d, e, subset=sub)
    assert V.shape == (d.shape[0], 3)
    np.testing.assert_allclose(lam, lam_full[sub], atol=1e-10)
    assert orthogonality_error(V) < GATE
