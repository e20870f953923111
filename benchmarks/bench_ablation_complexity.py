"""A1 — Eq. 8 ablation: worst-case complexity and the dominant merge.

Verifies the complexity claims of Sec. III: without deflation the D&C
costs 4n³/3 + Θ(n²) with the final merge ≈ n³ (75 %), the two
penultimate merges n³/4 each... and that real matrices undercut the
bound thanks to deflation ("less than O(n^2.4) in practice")."""

import pytest

from repro import dc_eigh
from repro.analysis import total_merge_flops, worst_case_flops
from common import matrix, save_table


def run():
    rows = [f"{'type':>5s} {'n':>6s} {'measured':>12s} {'4n³/3':>12s} "
            f"{'fraction':>9s}"]
    fractions = {}
    for mtype in (2, 4):
        for n in (512, 1024):
            d, e = matrix(mtype, n)
            res = dc_eigh(d, e, full_result=True)
            measured = total_merge_flops(res.info.ctx.merge_stats)
            bound = worst_case_flops(n)
            fractions[(mtype, n)] = measured / bound
            rows.append(f"{mtype:>5d} {n:>6d} {measured:>12.3g} "
                        f"{bound:>12.3g} {measured / bound:>9.1%}")
    save_table("ablation_complexity", "\n".join(rows))
    return fractions


def test_eq8_deflation_undercuts_worst_case(benchmark):
    fr = benchmark.pedantic(run, rounds=1, iterations=1)
    for key, f in fr.items():
        assert f < 1.1                      # never above the bound (+slack)
    # ~100%-deflation type does far less work than the ~20% one.
    assert fr[(2, 1024)] < fr[(4, 1024)] / 5


def test_eq8_last_merge_share(benchmark):
    """In the no-deflation limit the last merge is 3/4 of the total;
    with deflation it still dominates."""
    def run_one():
        d, e = matrix(4, 1024)
        res = dc_eigh(d, e, full_result=True)
        stats = res.info.ctx.merge_stats
        work = [2.0 * s.n * s.k * s.k for s in stats]
        return work

    work = benchmark.pedantic(run_one, rounds=1, iterations=1)
    assert work[-1] / sum(work) > 0.5
    # Eq. 8 structure on the analytic side.
    n = 4096
    levels = [n ** 3 / 4 ** i for i in range(12)]
    assert sum(levels) == pytest.approx(worst_case_flops(n), rel=1e-4)
