"""EXT-5 — task-flow reduction stage (paper context, ref. [3]).

The paper's pipeline starts from PLASMA's task-based reduction to
tridiagonal form [3].  This bench runs our task-flow one-stage
reduction on the simulated 16-core machine and shows (a) it
parallelizes (the O(n²)-per-step symv/update work spreads over tiles
while the panel chain stays serial — the very limitation that motivated
[3]'s two-stage approach), and (b) in the full dense pipeline the
reduction dominates the tridiagonal eigensolve, the paper's Sec. I
framing for why the tridiagonal stage had been neglected."""

import numpy as np

from repro.core import DCContext, DCOptions, submit_dc, taskflow_tridiagonalize
from repro.runtime import SequentialScheduler, SimulatedMachine, TaskGraph
from common import PAPER_MACHINE, save_table


def run():
    rng = np.random.default_rng(0)
    n = 384
    A = rng.normal(size=(n, n))
    A = 0.5 * (A + A.T)
    tri, tr16, g = taskflow_tridiagonalize(A, backend="simulated",
                                           machine=PAPER_MACHINE,
                                           tile=max(16, n // 16),
                                           full_result=True)
    t1 = SimulatedMachine(PAPER_MACHINE, n_workers=1,
                          execute=False).run(g).makespan
    t16 = tr16.makespan
    # Tridiagonal solve stage on the same machine.
    ctx = DCContext(tri.d, tri.e, DCOptions(minpart=64, nb=32))
    g2 = TaskGraph()
    submit_dc(g2, ctx)
    SequentialScheduler().run(g2)
    t_dc = SimulatedMachine(PAPER_MACHINE, n_workers=16,
                            execute=False).run(g2).makespan
    return n, t1, t16, t_dc


def test_reduction_stage(benchmark):
    n, t1, t16, t_dc = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [f"dense symmetric pipeline, n={n}, simulated 16 cores",
            f"reduction 1 core      : {t1 * 1e3:8.2f} ms",
            f"reduction 16 cores    : {t16 * 1e3:8.2f} ms "
            f"(speedup {t1 / t16:.1f}x; panel chain caps it — the "
            f"motivation for [3]'s two-stage scheme)",
            f"tridiagonal D&C stage : {t_dc * 1e3:8.2f} ms",
            f"reduction / D&C ratio : {t16 / t_dc:8.1f}x"]
    save_table("ext_reduction", "\n".join(rows))

    assert t1 / t16 > 2.0           # the quadratic work parallelizes
    assert t1 / t16 < 16.0          # but the panel chain is serial
    assert t16 > t_dc               # reduction dominates the pipeline
