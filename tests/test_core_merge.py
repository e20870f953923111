"""Unit tests for the merge internals (repro.core.merge / costs / options)."""

import numpy as np
import pytest

from repro.core import DCContext, DCOptions, FIG3_CONFIGS, submit_dc
from repro.core.costs import (cost_compute_deflation, cost_laed4,
                              cost_permute, cost_stedc, cost_update_vect)
from repro.core.merge import panel_ranges
from repro.runtime import SequentialScheduler, TaskGraph


def solved_context(n=120, minpart=40, nb=32, seed=0, **kw):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n)
    e = rng.normal(size=n - 1)
    ctx = DCContext(d, e, DCOptions(minpart=minpart, nb=nb, **kw))
    g = TaskGraph()
    info = submit_dc(g, ctx)
    SequentialScheduler().run(g)
    return ctx, info


def test_panel_ranges():
    assert panel_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert panel_ranges(4, 4) == [(0, 4)]
    assert panel_ranges(3, 100) == [(0, 3)]
    assert panel_ranges(0, 4) == [(0, 0)]


def test_effective_nb_auto():
    opts = DCOptions()
    assert opts.effective_nb(100) == 32          # floor
    assert opts.effective_nb(6400) == 100        # n/64
    assert opts.effective_nb(10 ** 6) == 256     # cap
    assert DCOptions(nb=77).effective_nb(123456) == 77


def test_options_validation():
    with pytest.raises(ValueError):
        DCOptions(minpart=0)
    with pytest.raises(ValueError):
        DCOptions(nb=0)
    # with_ preserves other fields.
    o = DCOptions(minpart=10).with_(nb=5)
    assert o.minpart == 10 and o.nb == 5


def test_fig3_configs_cover_paper_variants():
    assert set(FIG3_CONFIGS) == {"sequential", "parallel-gemm",
                                 "parallel-merge", "full-taskflow"}
    assert FIG3_CONFIGS["parallel-gemm"].fork_join
    assert FIG3_CONFIGS["parallel-merge"].level_barrier
    assert not FIG3_CONFIGS["full-taskflow"].level_barrier


def test_context_validation():
    with pytest.raises(ValueError):
        DCContext(np.empty(0), np.empty(0), DCOptions())
    with pytest.raises(ValueError):
        DCContext(np.ones(4), np.ones(4), DCOptions())
    with pytest.raises(ValueError):
        DCContext(np.ones(4), np.ones(3), DCOptions(), subset=np.array([9]))


def test_merge_state_accounting():
    ctx, info = solved_context()
    st = info.states[(0, 120)]
    n = st.n
    k = st.k
    # Permute accounting covers exactly the nonzero structure.
    total_rows = sum(st.permute_rows_moved(p0, p1)
                     for (p0, p1) in panel_ranges(n, 32))
    k1, k2, k3 = st.defl.ctot
    expected = (k1 * st.n1 + k2 * n + k3 * (n - st.n1)
                + (n - k) * n)
    assert total_rows == expected
    # Copy-back covers the deflated columns only.
    cb = sum(st.copyback_rows_moved(p0, p1)
             for (p0, p1) in panel_ranges(n, 32))
    assert cb == (n - k) * n
    # update_vect_shape clips to the non-deflated range.
    n1, n2, k12, k23, m = st.update_vect_shape(0, 32)
    assert n1 == st.n1 and n1 + n2 == n
    assert m == min(32, k)
    assert st.update_vect_shape(n - 1, n)[4] <= 1


def test_merge_stats_recorded():
    ctx, info = solved_context()
    stats = ctx.merge_stats
    assert len(stats) == info.tree.count_leaves() - 1
    for s in stats:
        assert 0 <= s.k <= s.n
        assert 0.0 <= s.deflation_ratio <= 1.0
    # The root merge is the largest.
    assert stats[-1].n == 120


def test_cost_functions_scale():
    assert cost_stedc(64).flops == 9.0 * 64 ** 3
    assert cost_permute(100).bytes_moved == 1600
    assert cost_laed4(100, 10).flops == pytest.approx(
        cost_laed4(100, 20).flops / 2)
    c = cost_update_vect(50, 50, 30, 40, 10)
    assert c.flops == 2.0 * 10 * (50 * 30 + 50 * 40)
    assert cost_compute_deflation(1000).flops > 0


def test_clip_roots_noop_panels():
    """Panels entirely past k are no-ops — the matrix-independent DAG."""
    n = 128
    d = np.ones(n)
    e = np.full(n - 1, 1e-15)       # nearly everything deflates
    ctx = DCContext(d, e, DCOptions(minpart=64, nb=16))
    g = TaskGraph()
    info = submit_dc(g, ctx)
    SequentialScheduler().run(g)
    st = info.states[(0, n)]
    assert st.k <= 2
    assert st.clip_roots(16, 32).size == 0
    assert st.update_cols(16, 32).size == 0
    lam, V = ctx.result()
    assert np.max(np.abs(V.T @ V - np.eye(n))) < 1e-12


def test_vws_reuse_across_merges_is_safe():
    """The shared workspace is reused by every merge; dependencies must
    make that safe (verified by numerics on a deep tree)."""
    ctx, info = solved_context(n=160, minpart=10, nb=8)
    lam, V = ctx.result()
    d, e = ctx.d_in, ctx.e_in
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.max(np.abs(T @ V - V * lam[None, :])) < 2e-12
