"""EXT-3 — heterogeneous execution prototype (paper future work).

"For future work, we plan to study the implementation for both
heterogeneous and distributed architectures, in the MAGMA and DPLASMA
libraries."  Related work [16] offloads the secular equation and the
GEMMs to GPUs.  This bench runs the unchanged D&C task DAG on the
simulated CPU machine vs the same machine plus one accelerator using
the [16] offload split, across the three deflation regimes."""

from repro.runtime import Accelerator, HeteroMachine
from common import PAPER_MACHINE, save_table, solved_graph


def run():
    table = {}
    for mtype in (2, 3, 4):
        sg = solved_graph(mtype, 1200, minpart=128, nb=48)
        t_cpu = sg.makespan(n_workers=16)
        het = HeteroMachine(PAPER_MACHINE, accelerators=1,
                            accel=Accelerator(gflops=900, n_streams=4),
                            execute=False)
        t_het = het.run(sg.graph).makespan
        table[mtype] = (t_cpu, t_het)
    return table


def test_heterogeneous_offload(benchmark):
    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [f"{'type':>5s} {'16 cores':>10s} {'+1 GPU':>10s} {'gain':>6s}"]
    for t, (c, h) in table.items():
        rows.append(f"{t:>5d} {c * 1e3:>8.2f}ms {h * 1e3:>8.2f}ms "
                    f"{c / h:>6.2f}")
    rows.append("(offload split of [16]: secular equation + GEMMs on "
                "the accelerator)")
    save_table("ext_heterogeneous", "\n".join(rows))

    # GEMM-heavy (low deflation) solves gain the most from the GPU;
    # copy-dominated (type 2) solves gain little.
    gain = {t: c / h for t, (c, h) in table.items()}
    assert gain[4] > 1.25
    assert gain[4] > gain[2]
    # The GPU never hurts.
    assert min(gain.values()) > 0.9
