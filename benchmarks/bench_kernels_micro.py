"""Microbenchmarks of the numerical kernels (pytest-benchmark proper:
multiple rounds, statistics).  These are the per-kernel throughputs the
simulator's cost model abstracts; tracking them guards against
performance regressions in the vectorized implementations."""

import numpy as np
import pytest

from repro.core import DCContext, DCOptions
from repro.kernels import (deflate, eigenvector_columns, local_w_product,
                           reduce_w, solve_secular, steqr)
from repro.mrrr import bisect_eigenvalues, getvec_batch, ldl_factor


@pytest.fixture(scope="module")
def secular_system():
    rng = np.random.default_rng(0)
    k = 500
    d = np.sort(rng.normal(size=k)) + np.arange(k) * 1e-3
    z = rng.uniform(0.1, 1.0, size=k)
    z /= np.linalg.norm(z)
    return d, z, 1.0


def test_bench_secular_solver(benchmark, secular_system):
    d, z, rho = secular_system
    roots = benchmark(solve_secular, d, z, rho)
    assert roots.lam.shape == (500,)


def test_bench_secular_panel(benchmark, secular_system):
    """One LAED4 panel task: 64 roots of a k=500 system."""
    d, z, rho = secular_system
    idx = np.arange(64)
    roots = benchmark(solve_secular, d, z, rho, idx)
    assert roots.lam.shape == (64,)


def _bench_secular_32_roots(benchmark, k):
    """Time one LAED4 task on the 32 middle roots of a k-pole system.
    ``extra_info["iterations"]`` holds its sweeps: the per-sweep time
    is the call time divided by it."""
    rng = np.random.default_rng(0)
    d = np.sort(rng.normal(size=k)) + np.arange(k) * 1e-3
    z = rng.uniform(0.1, 1.0, size=k)
    z /= np.linalg.norm(z)
    idx = np.arange(k // 2, k // 2 + 32)
    roots = benchmark(solve_secular, d, z, 1.0, idx)
    benchmark.extra_info["iterations"] = roots.iterations
    assert roots.lam.shape == (32,)


def test_bench_secular_root_panel(benchmark):
    """One root-merge LAED4 task at n=2000: 32 roots of a k=1800
    system (about 10% of the root's columns deflate on type 4)."""
    _bench_secular_32_roots(benchmark, 1800)


@pytest.mark.parametrize("k", [128, 256, 600])
def test_bench_secular_small_panel(benchmark, k):
    """A LAED4 task of a small merge: 32 roots of a k=128 system is the
    shape of the n=128 merges of ``batch-small``'s n=256 solves, where
    a sweep's fixed cost of NumPy calls on the 32 roots dominates its
    m×k contractions."""
    _bench_secular_32_roots(benchmark, k)


def test_bench_deflation(benchmark):
    rng = np.random.default_rng(1)
    n = 1000
    d = np.concatenate([np.sort(rng.normal(size=n // 2)),
                        np.sort(rng.normal(size=n // 2))])
    z = rng.normal(size=n)
    res = benchmark(deflate, d, z, 1.3, n // 2)
    assert res.k > 0


def test_bench_stabilization(benchmark, secular_system):
    d, z, rho = secular_system
    roots = solve_secular(d, z, rho)
    k = d.shape[0]

    def run():
        part = local_w_product(d, roots.orig, roots.tau, np.arange(k))
        return reduce_w([part], z, rho)

    zhat = benchmark(run)
    np.testing.assert_allclose(zhat, z, atol=1e-11)


def test_bench_eigenvector_columns(benchmark, secular_system):
    d, z, rho = secular_system
    roots = solve_secular(d, z, rho)
    part = local_w_product(d, roots.orig, roots.tau, np.arange(len(d)))
    zhat = reduce_w([part], z, rho)
    X = benchmark(eigenvector_columns, d, roots.orig, roots.tau, zhat)
    assert X.shape == (500, 500)


def test_bench_steqr_leaf(benchmark):
    rng = np.random.default_rng(2)
    d = rng.normal(size=64)
    e = rng.normal(size=63)
    lam, V = benchmark(steqr, d, e)
    assert lam.shape == (64,)


def test_bench_eigh_block_leaf(benchmark):
    """One ``STEDC`` leaf task: LAPACK ``dsyevd`` on the dense block, at
    the leaf size of the ledger's n=2000 solves (minpart 64: leaves of
    62 and 63)."""
    rng = np.random.default_rng(2)
    d = rng.normal(size=62)
    e = rng.normal(size=61)
    ctx = DCContext(d, e, DCOptions(jobz="N"))
    lam, rows = benchmark(ctx.eigh_block, 0, 62, d, e)
    assert lam.shape == (62,) and rows.shape == (2, 62)


def test_bench_sturm_bisection(benchmark):
    rng = np.random.default_rng(3)
    n = 400
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    lam = benchmark(bisect_eigenvalues, d, e)
    assert lam.shape == (n,)


def test_bench_getvec_batch(benchmark):
    rng = np.random.default_rng(4)
    n = 300
    d = rng.normal(size=n) + 6.0
    e = rng.normal(size=n - 1) * 0.5
    rep = ldl_factor(d, e, 0.0)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    lam_all = np.linalg.eigvalsh(T)
    gaps = np.minimum(np.diff(lam_all, prepend=lam_all[0] - 1),
                      np.diff(lam_all, append=lam_all[-1] + 1))
    Z, lam_out, resid = benchmark(getvec_batch, rep, lam_all, gaps)
    assert Z.shape == (n, n)
