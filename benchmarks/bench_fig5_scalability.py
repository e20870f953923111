"""F5 — Fig. 5: scalability from 1 to 16 threads (types 2, 3, 4).

Paper: low-deflation matrices reach ~12× on 16 cores; ~100 %-deflation
matrices are memory-bound — ~4 threads saturate the first socket's
bandwidth and the speedup only recovers once the second socket is used
(> 8 threads)."""

from common import save_table, solved_graph

THREADS = (1, 2, 4, 8, 12, 16)


def run_curves(n=1500):
    curves = {}
    for mtype in (2, 3, 4):
        sg = solved_graph(mtype, n, minpart=128, nb=48)
        t1 = sg.makespan(n_workers=1)
        curves[mtype] = {p: t1 / sg.makespan(n_workers=p) for p in THREADS}
    return curves


def test_fig5_scalability(benchmark):
    curves = benchmark.pedantic(run_curves, rounds=1, iterations=1)
    rows = [f"{'type':>6s} " + "".join(f"{p:>8d}" for p in THREADS)]
    for mtype, sp in curves.items():
        rows.append(f"type {mtype:>2d}"
                    + "".join(f"{sp[p]:>8.2f}" for p in THREADS))
    rows.append("(paper: type4 ~12x at 16; type2 saturates ~4-5 on one "
                "socket, recovers >8 threads)")
    save_table("fig5_scalability", "\n".join(rows))

    # Low deflation (type 4): strong scaling.
    assert curves[4][16] > 8.0
    # High deflation (type 2): bandwidth-limited, clearly below type 4.
    assert curves[2][16] < curves[4][16]
    # Socket saturation: going 4 -> 8 threads gains little for type 2...
    gain_4_to_8 = curves[2][8] / curves[2][4]
    assert gain_4_to_8 < 1.6
    # ...and the second socket (8 -> 16) helps again.
    assert curves[2][16] > curves[2][8] * 1.1
    # Everything scales monotonically from 1 to 2 threads.
    for mtype in (2, 3, 4):
        assert curves[mtype][2] > 1.5
