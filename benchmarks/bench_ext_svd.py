"""EXT-2 — D&C SVD (extension; the paper's conclusion).

"As the Singular Value Decomposition follows the same scheme as the
symmetric eigenproblem ... it is also a good candidate for applying the
ideas of this paper."  The extension routes the bidiagonal SVD through
the Golub-Kahan TGK tridiagonal and the task-flow D&C; this bench checks
correctness against NumPy and shows the task-flow parallelism carries
over (simulated 16-core speedup of the TGK eigensolve)."""

import numpy as np

from repro.core import DCOptions, DCContext, submit_dc, tgk_tridiagonal
from repro.core.svd import svd_bidiagonal
from repro.runtime import SequentialScheduler, SimulatedMachine, TaskGraph
from common import PAPER_MACHINE, save_table


def run():
    rng = np.random.default_rng(0)
    n = 400
    q = rng.normal(size=n)
    r = rng.normal(size=n - 1)
    B = np.diag(q) + np.diag(r, 1)

    U, s, Vt = svd_bidiagonal(q, r)
    s_ref = np.linalg.svd(B, compute_uv=False)
    acc = float(np.max(np.abs(s - s_ref)))
    resid = float(np.max(np.abs((U * s[None, :]) @ Vt - B)))

    # Task-flow parallelism of the underlying TGK eigensolve.
    d, e = tgk_tridiagonal(q, r)
    ctx = DCContext(d, e, DCOptions(minpart=128, nb=48))
    g = TaskGraph()
    submit_dc(g, ctx)
    SequentialScheduler().run(g)
    t1 = SimulatedMachine(PAPER_MACHINE, n_workers=1,
                          execute=False).run(g).makespan
    t16 = SimulatedMachine(PAPER_MACHINE, n_workers=16,
                           execute=False).run(g).makespan
    rows = [f"bidiagonal n={n} (TGK size {2 * n})",
            f"max |sigma - numpy|   : {acc:.2e}",
            f"reconstruction resid  : {resid:.2e}",
            f"TGK eigensolve speedup: {t1 / t16:.2f}x on 16 simulated "
            f"cores"]
    save_table("ext_svd", "\n".join(rows))
    return acc, resid, t1 / t16


def test_svd_extension(benchmark):
    acc, resid, speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    assert acc < 1e-12
    assert resid < 1e-11
    # The task-flow ideas carry over to the SVD, as the paper predicts.
    assert speedup > 6.0
