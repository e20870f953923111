"""EXT-1 — subset computation (extension; paper Sec. I discussion).

The paper notes MRRR's main asset is subset computation (Θ(nk)) and
that classical D&C either lacks it or only trims the last update step
([6]).  This repository implements both: D&C with the [6]-style
restricted final update, and true MRRR subsetting that skips unwanted
clusters.  The bench sweeps the subset size and reports the measured
work reduction of each approach."""

import numpy as np

from repro import dc_eigh, mrrr_eigh
from common import matrix, save_table

N = 300


def run_sweep():
    d, e = matrix(6, N)
    rows = [f"{'k':>6s} {'DC UpdateVect flops':>20s} {'MRRR Getvec tasks':>18s}"]
    data = {}
    for k in (5, 30, 100, N):
        sub = np.linspace(0, N - 1, k).astype(int)
        res_dc = dc_eigh(d, e, backend="simulated", subset=sub,
                         full_result=True)
        upd = res_dc.trace.kernel_times().get("UpdateVect", 0.0)
        res_mr = mrrr_eigh(d, e, subset=sub, full_result=True)
        getvecs = sum(1 for w in res_mr.records if w.name == "Getvec")
        rows.append(f"{k:>6d} {upd:>20.3e} {getvecs:>18d}")
        data[k] = (upd, getvecs)
    rows.append("(D&C: only the final merge's update shrinks — the [6] "
                "optimization; MRRR: work scales with k — Θ(nk))")
    save_table("ext_subset", "\n".join(rows))
    return data


def test_subset_work_scales(benchmark):
    data = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    # D&C's final-update restriction saves real work for small subsets.
    assert data[5][0] < 0.75 * data[N][0]
    # MRRR's vector work scales with the subset size.
    assert data[5][1] < data[N][1] / 4
    assert data[30][1] <= data[100][1] <= data[N][1]


def test_subset_results_consistent(benchmark):
    def run():
        d, e = matrix(6, N)
        sub = np.arange(10, 40)
        lam_dc, v_dc = dc_eigh(d, e, subset=sub)
        lam_mr, v_mr = mrrr_eigh(d, e, subset=sub)
        return d, e, sub, lam_dc, v_dc, lam_mr, v_mr

    d, e, sub, lam_dc, v_dc, lam_mr, v_mr = benchmark.pedantic(
        run, rounds=1, iterations=1)
    np.testing.assert_allclose(lam_dc, lam_mr, atol=1e-10)
    # Vectors agree up to sign.
    dots = np.abs(np.sum(v_dc * v_mr, axis=0))
    np.testing.assert_allclose(dots, 1.0, atol=1e-8)
