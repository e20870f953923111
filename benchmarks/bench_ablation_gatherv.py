"""A2 — GATHERV ablation (design choice of Sec. IV).

Without GATHERV, a join kernel would need one declared dependency per
panel (Θ(n/nb) tracking work per task); with it, every task declares a
constant number of accesses.  This bench sweeps the panel count and
reports declared-accesses-per-task — flat for the GATHERV design,
linearly growing for the emulated per-panel alternative."""

from repro.core import DCContext, DCOptions, submit_dc
from repro.runtime import TaskGraph
from common import matrix, save_table

PANEL_KERNELS = ("PermuteV", "LAED4", "ComputeLocalW", "ComputeVect",
                 "UpdateVect", "CopyBackDeflated")


def build_stats(nb: int, n: int = 1024):
    d, e = matrix(6, n)
    g = TaskGraph()
    submit_dc(g, DCContext(d, e, DCOptions(minpart=512, nb=nb)))
    root_panels = (n + nb - 1) // nb
    worst = max(len(t.accesses) for t in g.tasks
                if t.name in PANEL_KERNELS)
    return root_panels, worst, g.n_tasks


def test_gatherv_keeps_declared_accesses_constant(benchmark):
    def run():
        return {nb: build_stats(nb) for nb in (512, 128, 32, 8)}

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [f"{'nb':>6s} {'panels':>8s} {'tasks':>7s} "
            f"{'max accesses/panel task':>24s} "
            f"{'w/o GATHERV (emulated)':>24s}"]
    for nb, (panels, worst, ntasks) in stats.items():
        rows.append(f"{nb:>6d} {panels:>8d} {ntasks:>7d} {worst:>24d} "
                    f"{panels + 3:>24d}")
    rows.append("(GATHERV: O(1) declared deps per task; per-panel "
                "qualifiers would grow with the panel count)")
    save_table("ablation_gatherv", "\n".join(rows))

    counts = [worst for (_, worst, _) in stats.values()]
    # Declared access counts do not grow as panels multiply by 64x.
    assert max(counts) == min(counts)
    assert max(counts) <= 6


def test_join_tasks_single_inout(benchmark):
    """Paper: 'the join task has a single INOUT dependency on the full
    matrix' — constant declared accesses for Compute_deflation/ReduceW."""
    def run():
        d, e = matrix(6, 1024)
        g = TaskGraph()
        submit_dc(g, DCContext(d, e, DCOptions(minpart=128, nb=16)))
        return g

    g = benchmark.pedantic(run, rounds=1, iterations=1)
    for t in g.tasks:
        if t.name in ("Compute_deflation", "ReduceW"):
            assert len(t.accesses) <= 3
