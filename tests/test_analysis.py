"""Tests for the analysis utilities (repro.analysis)."""

import numpy as np
import pytest

from repro import dc_eigh, mrrr_eigh
from repro.analysis import (deflation_summary, eigenvalue_error,
                            merge_step_costs, mrrr_makespan,
                            mrrr_task_graph, orthogonality_error,
                            speedup_curve, total_merge_flops,
                            tridiagonal_residual, worst_case_flops)


def test_orthogonality_error_identity():
    assert orthogonality_error(np.eye(5)) == 0.0
    V = np.eye(4)
    V[0, 1] = 1e-8
    assert orthogonality_error(V) == pytest.approx(1e-8 / 4, rel=1e-6)


def test_tridiagonal_residual_exact_eigendecomposition():
    rng = np.random.default_rng(0)
    d = rng.normal(size=30)
    e = rng.normal(size=29)
    lam, V = dc_eigh(d, e)
    assert tridiagonal_residual(d, e, lam, V) < 1e-15
    # Perturbed eigenvalues raise the residual.
    assert tridiagonal_residual(d, e, lam + 1e-6, V) > 1e-9


def test_eigenvalue_error():
    assert eigenvalue_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert eigenvalue_error([1.0, 2.1], [1.0, 2.0]) == pytest.approx(0.05)


def test_merge_step_costs_table1_shape():
    costs = merge_step_costs(1000, 600)
    assert costs["Compute the number of deflated eigenvalues"] == 1000
    assert costs["Permute eigenvectors (copy)"] == 1000 ** 2
    assert costs["Solve the secular equation"] == 600 ** 2
    assert costs["Permute eigenvectors (copy-back)"] == 1000 * 400
    assert costs["Compute eigenvectors V = V~X"] == 1000 * 600 ** 2
    assert len(costs) == 7     # the seven rows of Table I


def test_worst_case_flops_eq8():
    # Eq. 8: the final merge is ~n^3 of the 4n^3/3 total.
    n = 4096
    assert worst_case_flops(n) == pytest.approx(4 * n ** 3 / 3)
    assert n ** 3 / worst_case_flops(n) == pytest.approx(0.75)


def test_total_merge_flops_reflects_deflation():
    rng = np.random.default_rng(1)
    n = 200
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    res = dc_eigh(d, e, full_result=True)
    flops = total_merge_flops(res.info.ctx.merge_stats)
    assert 0 < flops < worst_case_flops(n) * 2
    # A fully deflating matrix does almost no merge flops.
    d2 = np.ones(n)
    e2 = np.full(n - 1, 1e-15)
    res2 = dc_eigh(d2, e2, full_result=True)
    assert total_merge_flops(res2.info.ctx.merge_stats) < flops / 10


def test_deflation_summary():
    rng = np.random.default_rng(2)
    n = 150
    res = dc_eigh(rng.normal(size=n), rng.normal(size=n - 1),
                  full_result=True)
    s = deflation_summary(res.info.ctx.merge_stats)
    assert 0.0 <= s["mean_deflation"] <= 1.0
    assert s["total_secular_sweeps"] > 0
    assert deflation_summary([])["mean_deflation"] == 0.0


def test_mrrr_task_graph_replay():
    rng = np.random.default_rng(3)
    n = 120
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    res = mrrr_eigh(d, e, full_result=True)
    g = mrrr_task_graph(res.records)
    assert g.n_tasks == len(res.records)
    g.validate_acyclic()
    t16 = mrrr_makespan(d, e, n_workers=16)
    t1 = mrrr_makespan(d, e, n_workers=1)
    assert 0 < t16 <= t1
    assert t1 / t16 > 1.5     # MR3-SMP-style task pool does scale


def test_speedup_curve():
    sp = speedup_curve({1: 8.0, 2: 4.0, 8: 1.0})
    assert sp[1] == 1.0 and sp[2] == 2.0 and sp[8] == 8.0
