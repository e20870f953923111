"""T3 — Table III: the fifteen matrix types.

Generates every type, solves it with the task-flow D&C and reports the
deflation behaviour — confirming the regimes the paper attributes to
types 2/3/4 (~100 %, ~50 %, ~20 % deflation at the dominant merges)."""

from repro import dc_eigh
from repro.analysis import orthogonality_error, tridiagonal_residual
from repro.matrices import MATRIX_TYPES, matrix_description
from common import matrix, save_table


def run_all_types(n=256):
    rows = [f"{'type':>5s} {'defl(final)':>12s} {'orth':>10s} "
            f"{'resid':>10s}  description"]
    defl = {}
    for mtype in MATRIX_TYPES:
        d, e = matrix(mtype, n)
        res = dc_eigh(d, e, full_result=True)
        defl[mtype] = res.total_deflation
        rows.append(f"{mtype:>5d} {res.total_deflation:>12.0%} "
                    f"{orthogonality_error(res.V):>10.1e} "
                    f"{tridiagonal_residual(d, e, res.lam, res.V):>10.1e}"
                    f"  {matrix_description(mtype)}")
    save_table("table3_matrices", "\n".join(rows))
    return defl


def test_table3_all_types(benchmark):
    defl = benchmark.pedantic(run_all_types, rounds=1, iterations=1)
    # Paper: type 2 ~100 %, type 3 ~50 %, type 4 ~20 % deflation.
    assert defl[2] > 0.9
    assert 0.25 < defl[3] < 0.75
    assert defl[4] < 0.35
    # Ordering of the three regimes.
    assert defl[2] > defl[3] > defl[4]
