"""F10 — Fig. 10: application matrices.

Paper: on matrices from real applications (LAPACK stetester collection)
the task-flow D&C outperforms MR³-SMP on almost all cases while giving
better accuracy.  Here the collection is replaced by synthetic
application-class generators (glued Wilkinson, Lanczos-reduced PDE
operators, clustered and graded spectra — see
repro.matrices.application)."""

from repro import mrrr_eigh
from repro.analysis import mrrr_makespan, orthogonality_error
from repro.core import DCOptions
from repro.matrices import application_matrices
from common import PAPER_MACHINE, save_table
from common import SolvedGraph


def run_application_set():
    results = []
    for name, d, e in application_matrices(max_n=420):
        sg = SolvedGraph(d, e, DCOptions(minpart=64, nb=32))
        t_dc = sg.makespan(n_workers=16, machine=PAPER_MACHINE)
        t_mr = mrrr_makespan(d, e, n_workers=16, machine=PAPER_MACHINE)
        lam, V = sg.ctx.result()
        lam_mr, v_mr = mrrr_eigh(d, e)
        results.append((name, len(d), t_dc, t_mr,
                        orthogonality_error(V),
                        orthogonality_error(v_mr)))
    return results


def test_fig10_application_matrices(benchmark):
    results = benchmark.pedantic(run_application_set, rounds=1,
                                 iterations=1)
    rows = [f"{'matrix':<26s} {'n':>5s} {'t_DC':>9s} {'t_MR3':>9s} "
            f"{'ratio':>6s} {'orthDC':>9s} {'orthMR3':>9s}"]
    dc_wins = 0
    for name, n, t_dc, t_mr, o_dc, o_mr in results:
        rows.append(f"{name:<26s} {n:>5d} {t_dc * 1e3:>7.2f}ms "
                    f"{t_mr * 1e3:>7.2f}ms {t_mr / t_dc:>6.2f} "
                    f"{o_dc:>9.1e} {o_mr:>9.1e}")
        if t_dc < t_mr:
            dc_wins += 1
    rows.append("(paper: D&C outperforms MR3-SMP on almost all "
                "application cases, with better accuracy)")
    save_table("fig10_application", "\n".join(rows))

    # D&C faster on most of the set, accuracy at least as good overall.
    assert dc_wins >= len(results) - 1
    worst_dc = max(r[4] for r in results)
    worst_mr = max(r[5] for r in results)
    assert worst_dc <= worst_mr * 2.0
