"""Tests for the extension features: subset computation, Chrome-trace
export, workspace accounting."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import dc_eigh
from repro.analysis import (dc_workspace_bytes, mrrr_workspace_bytes,
                            workspace_report)


# ---------------------------------------------------------------------------
# subset computation (paper Sec. I / [6])
# ---------------------------------------------------------------------------

def _setup(n=250, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n), rng.normal(size=n - 1)


def assert_matches_full(d, e, subset):
    lam_full, V_full = dc_eigh(d, e)
    lam_s, V_s = dc_eigh(d, e, subset=subset)
    np.testing.assert_array_equal(lam_s, lam_full[subset])
    assert V_s.shape == (len(d), len(subset))
    # Same vectors and sign conventions (same computation); the
    # restricted GEMM may use a strided BLAS path, so allow last-ulp
    # differences.
    np.testing.assert_allclose(V_s, V_full[:, subset], atol=5e-14)


def test_subset_basic():
    d, e = _setup()
    assert_matches_full(d, e, np.array([0, 5, 100, 150, 249]))


def test_subset_extremes():
    d, e = _setup(seed=1)
    assert_matches_full(d, e, np.array([0]))
    assert_matches_full(d, e, np.array([249]))
    assert_matches_full(d, e, np.arange(250))   # full subset == full


def test_subset_contiguous_interior_window():
    d, e = _setup(seed=2)
    assert_matches_full(d, e, np.arange(80, 120))


def test_subset_residual_and_orthogonality():
    d, e = _setup(seed=3)
    sub = np.arange(0, 250, 7)
    lam, V = dc_eigh(d, e, subset=sub)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.max(np.abs(T @ V - V * lam[None, :])) < 1e-12
    assert np.max(np.abs(V.T @ V - np.eye(len(sub)))) < 1e-12


def test_subset_reduces_simulated_update_cost():
    d, e = _setup(seed=4)
    full = dc_eigh(d, e, backend="simulated", full_result=True)
    small = dc_eigh(d, e, backend="simulated", subset=np.arange(5),
                    full_result=True)
    t_full = full.trace.kernel_times()["UpdateVect"]
    t_small = small.trace.kernel_times()["UpdateVect"]
    # Only the last merge is restricted, which holds ~75% of the work.
    assert t_small < 0.8 * t_full


def test_subset_with_high_deflation():
    n = 200
    d = np.ones(n)
    e = np.full(n - 1, 1e-14)
    sub = np.array([0, n - 1])
    lam, V = dc_eigh(d, e, subset=sub)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.max(np.abs(T @ V - V * lam[None, :])) < 1e-12


def test_subset_duplicates_and_unsorted_are_normalized():
    d, e = _setup(seed=5)
    lam1, V1 = dc_eigh(d, e, subset=[10, 3, 10, 7])
    lam2, V2 = dc_eigh(d, e, subset=[3, 7, 10])
    np.testing.assert_array_equal(lam1, lam2)


def test_subset_out_of_range():
    d, e = _setup()
    with pytest.raises(ValueError):
        dc_eigh(d, e, subset=[250])
    with pytest.raises(ValueError):
        dc_eigh(d, e, subset=[-1])


def test_subset_empty():
    # Empty subset is legal: all eigenvalues, no eigenvectors.
    d, e = _setup()
    lam, V = dc_eigh(d, e, subset=[])
    assert lam.shape == (0,)
    assert V.shape == (d.shape[0], 0)


@settings(max_examples=10, deadline=None)
@given(st.integers(10, 80), st.integers(0, 2 ** 31 - 1),
       st.data())
def test_property_subset_equals_full_slice(n, seed, data):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-5, 5, size=n)
    e = rng.uniform(-5, 5, size=n - 1)
    k = data.draw(st.integers(1, n))
    subset = np.sort(rng.choice(n, size=k, replace=False))
    lam_full, V_full = dc_eigh(d, e)
    lam_s, V_s = dc_eigh(d, e, subset=subset)
    np.testing.assert_array_equal(lam_s, lam_full[subset])
    np.testing.assert_allclose(V_s, V_full[:, subset], atol=5e-14)


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------

def test_chrome_trace_roundtrips_as_json():
    d, e = _setup(100)
    res = dc_eigh(d, e, backend="simulated", full_result=True)
    events = res.trace.to_chrome_trace()
    blob = json.dumps(events)
    parsed = json.loads(blob)
    # Metadata (process/thread names) leads, one X event per task follows.
    assert parsed[0]["ph"] == "M"
    tasks = [ev for ev in parsed if ev["ph"] == "X"]
    assert len(tasks) == len(res.trace.events)
    assert {e["tid"] for e in parsed} <= set(range(16))
    # Durations positive, timestamps sorted.
    assert all(ev["dur"] > 0 for ev in tasks)
    ts = [ev["ts"] for ev in tasks]
    assert ts == sorted(ts)


# ---------------------------------------------------------------------------
# workspace accounting
# ---------------------------------------------------------------------------

def test_workspace_scaling():
    assert dc_workspace_bytes(2000) > dc_workspace_bytes(1000) * 3.5
    assert mrrr_workspace_bytes(2000) == 2 * mrrr_workspace_bytes(1000)
    # The paper's point: D&C needs Θ(n²) extra, MRRR Θ(n).
    assert dc_workspace_bytes(4000) / mrrr_workspace_bytes(4000) > 100


def test_workspace_report_text():
    rep = workspace_report(1000)
    assert "D&C workspace" in rep and "MRRR" in rep and "MB" in rep
