"""A4 — extra-workspace overlap option (Sec. IV).

With extra workspace, PermuteV may overlap LAED4 and CopyBackDeflated
may overlap ComputeVect; without it they serialize on the shared
buffer.  Paper: "the effect of this option can be seen on a machine
with large number of cores".  The bench compares both modes on 16 and
64 simulated cores."""

from repro.runtime import Machine
from common import save_table, solved_graph

BIG_MACHINE = Machine(n_cores=64, n_sockets=4)


def run_modes(n=1500):
    out = {}
    for extra in (True, False):
        sg = solved_graph(3, n, minpart=128, nb=32,
                          extra_workspace=extra)
        out[(extra, 16)] = sg.makespan(n_workers=16)
        out[(extra, 64)] = sg.makespan(n_workers=64, machine=BIG_MACHINE)
    return out


def test_extra_workspace_overlap(benchmark):
    t = benchmark.pedantic(run_modes, rounds=1, iterations=1)
    gain16 = t[(False, 16)] / t[(True, 16)]
    gain64 = t[(False, 64)] / t[(True, 64)]
    rows = [f"{'cores':>6s} {'no extra ws':>12s} {'extra ws':>12s} "
            f"{'gain':>6s}",
            f"{16:>6d} {t[(False, 16)] * 1e3:>10.2f}ms "
            f"{t[(True, 16)] * 1e3:>10.2f}ms {gain16:>6.2f}",
            f"{64:>6d} {t[(False, 64)] * 1e3:>10.2f}ms "
            f"{t[(True, 64)] * 1e3:>10.2f}ms {gain64:>6.2f}",
            "(paper: the option matters on machines with many cores)"]
    save_table("ablation_workspace", "\n".join(rows))

    # Extra workspace never hurts...
    assert gain16 > 0.98
    assert gain64 > 0.98
    # ...and (per the paper) matters more with more cores.
    assert gain64 >= gain16 * 0.98


def test_numbers_identical_either_way(benchmark):
    import numpy as np

    def run():
        a = solved_graph(3, 600, minpart=128, nb=32, extra_workspace=True)
        b = solved_graph(3, 600, minpart=128, nb=32, extra_workspace=False)
        return a.ctx.result(), b.ctx.result()

    (lam_a, v_a), (lam_b, v_b) = benchmark.pedantic(run, rounds=1,
                                                    iterations=1)
    np.testing.assert_array_equal(lam_a, lam_b)
    np.testing.assert_array_equal(v_a, v_b)
