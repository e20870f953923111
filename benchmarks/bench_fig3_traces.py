"""F3 — Fig. 3: execution traces under the three optimization levels.

Paper (type 4, n=10000, 16 cores): sequential 18 s → (a) parallel GEMM
only 4.3 s (≈ MKL, speedup 4.2) → (b) parallel merge kernels 1.8 s
(2.4× over (a)) → (c) independent subproblems overlapped, final speedup
≈ 12× over sequential.

Here: type 4 at n = 1500 on the simulated 16-core machine.  Absolute
times differ (different machine model); the *ratios* are the claim."""

from common import save_table, solved_graph


def run_configs():
    n = 1500
    cfgs = {
        "sequential": dict(fork_join=True, level_barrier=True),
        "(a) parallel-gemm": dict(fork_join=True, level_barrier=True),
        "(b) parallel-merge": dict(level_barrier=True),
        "(c) full-taskflow": dict(),
    }
    times = {}
    for name, kw in cfgs.items():
        sg = solved_graph(4, n, minpart=128, nb=64, **kw)
        workers = 1 if name == "sequential" else 16
        times[name] = sg.makespan(n_workers=workers)
    return times


def test_fig3_optimization_levels(benchmark):
    times = benchmark.pedantic(run_configs, rounds=1, iterations=1)
    seq = times["sequential"]
    rows = [f"{'configuration':<22s} {'makespan':>10s} {'speedup':>8s}"
            f"   (paper: 18s / 4.3s / 1.8s / ~1.5s)"]
    for name, t in times.items():
        rows.append(f"{name:<22s} {t * 1e3:>8.2f}ms {seq / t:>8.2f}")
    save_table("fig3_traces", "\n".join(rows))

    # Shape assertions mirroring the paper's progression.
    t_a = times["(a) parallel-gemm"]
    t_b = times["(b) parallel-merge"]
    t_c = times["(c) full-taskflow"]
    assert t_a < seq                      # GEMM parallelization helps
    assert t_b < t_a / 1.5                # merge parallelization ~2x more
    assert t_c <= t_b * 1.02              # removing barriers helps again
    assert seq / t_c > 8.0                # paper: ~12x total


def test_fig3_trace_has_no_levelgaps_in_full_taskflow(benchmark):
    """In (c) the penultimate merges overlap (paper's last observation)."""
    def run():
        sg = solved_graph(4, 1500, minpart=128, nb=64)
        return sg.trace(n_workers=16)

    trace = benchmark.pedantic(run, rounds=1, iterations=1)
    # Two penultimate Compute_deflation tasks run before the other
    # branch's merge is finished: check their executions overlap with
    # UpdateVect tasks of the sibling branch.
    defl = [ev for ev in trace.events if ev.name == "Compute_deflation"]
    upd = [ev for ev in trace.events if ev.name == "UpdateVect"]
    overlapping = any(
        d.tag != u.tag and d.t_start < u.t_end and u.t_start < d.t_end
        for d in defl for u in upd)
    assert overlapping
