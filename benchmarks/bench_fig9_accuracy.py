"""F9 — Fig. 9: numerical stability of D&C vs MRRR.

Paper: (a) eigenvector orthogonality ‖I − VVᵀ‖/n and (b) reduction
residual ‖T − VΛVᵀ‖/(‖T‖n); D&C is consistently more accurate than
MRRR, by one to two digits (theory: O(√n·ε) vs O(n·ε))."""

import numpy as np

from repro import dc_eigh, mrrr_eigh
from repro.analysis import orthogonality_error, tridiagonal_residual
from repro.matrices import MATRIX_TYPES
from common import matrix, save_table

N = 250


def run_accuracy():
    out = {}
    for mtype in MATRIX_TYPES:
        d, e = matrix(mtype, N)
        lam_dc, v_dc = dc_eigh(d, e)
        lam_mr, v_mr = mrrr_eigh(d, e)
        out[mtype] = (orthogonality_error(v_dc),
                      tridiagonal_residual(d, e, lam_dc, v_dc),
                      orthogonality_error(v_mr),
                      tridiagonal_residual(d, e, lam_mr, v_mr))
    return out


def test_fig9_accuracy(benchmark):
    acc = benchmark.pedantic(run_accuracy, rounds=1, iterations=1)
    rows = [f"n={N}; orthogonality |I-V'V|/n and residual "
            f"|T-VLV'|/(|T| n)",
            f"{'type':>5s} {'DC orth':>10s} {'DC resid':>10s} "
            f"{'MR3 orth':>10s} {'MR3 resid':>10s}"]
    for t, (do, dr, mo, mr) in acc.items():
        rows.append(f"{t:>5d} {do:>10.1e} {dr:>10.1e} "
                    f"{mo:>10.1e} {mr:>10.1e}")
    save_table("fig9_accuracy", "\n".join(rows))

    dc_orth = np.array([v[0] for v in acc.values()])
    mr_orth = np.array([v[2] for v in acc.values()])
    dc_res = np.array([v[1] for v in acc.values()])
    n = N
    eps = np.finfo(float).eps
    # Everything is numerically sane.
    assert dc_orth.max() < 100 * n * eps
    assert mr_orth.max() < 1000 * n * eps
    assert dc_res.max() < 100 * n * eps
    # D&C is at least as accurate as MRRR in the worst case, with a
    # clear gap in the geometric mean (paper: 1-2 digits).
    assert dc_orth.max() <= mr_orth.max()
    gmean_ratio = np.exp(np.mean(np.log((mr_orth + 1e-20)
                                        / (dc_orth + 1e-20))))
    assert gmean_ratio > 2.0


def test_fig9_multiple_threads_do_not_degrade(benchmark):
    """Paper: 'multiple threads do not degrade the results'."""
    def run():
        d, e = matrix(6, N)
        lam_s, v_s = dc_eigh(d, e, backend="sequential")
        lam_t, v_t = dc_eigh(d, e, backend="threads", n_workers=4)
        return lam_s, v_s, lam_t, v_t

    lam_s, v_s, lam_t, v_t = benchmark.pedantic(run, rounds=1, iterations=1)
    np.testing.assert_array_equal(lam_s, lam_t)
    np.testing.assert_array_equal(v_s, v_t)
