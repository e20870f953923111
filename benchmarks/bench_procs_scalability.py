"""Process-pool scalability: threads vs processes past the GIL wall.

The quadratic merge phases that dominate mid-size solves — LAED4 secular
panels, deflation analysis, permutation/copy-back assembly — are pure
Python + small NumPy slices and hold the GIL, so the threads backend
cannot overlap them no matter how many workers it has.  The processes
backend runs the same task graph on worker *processes* with
shared-memory workspaces, so these phases scale on real cores.

For each configuration this benchmark solves a Table III type-4 matrix
on the sequential, threads and processes backends (2 workers each,
bitwise-identical results asserted) and reports, per parallel backend:

``wall_s``
    End-to-end solve wall seconds.
``gil_busy_s``
    Summed duration of GIL-bound kernel events (LAED4, PermuteV,
    Compute_deflation, CopyBackDeflated, ComputeVect, ApplyGivens).
``gil_union_s``
    Wall-clock footprint of those events (interval union across
    workers): with the GIL this collapses to ~``gil_busy_s``; with real
    parallelism it approaches ``gil_busy_s / n_workers``.
``gil_overlap``
    ``gil_busy_s / gil_union_s`` — achieved parallelism inside the
    GIL-bound phases (1.0 = fully serialized).

All timings are honest about the producing host: the committed
``BENCH_procs.json`` records ``cpu_count`` in its provenance, and on a
single-core host the process pool cannot (and does not claim to) beat
threads on wall clock — the committed evidence there is the per-phase
interval-union/overlap structure, which CI re-measures on multi-core
runners.

``--smoke`` (the CI gate):

1. validates the committed ``BENCH_procs.json`` (structure + the
   ``gil_union_s <= gil_busy_s`` invariant for every entry), and
2. on hosts with >= 2 cores, live-measures the n=2500 configuration and
   fails unless the processes backend beats threads by > 1.15x on the
   GIL-bound phase union wall (the phases the tentpole exists to
   parallelize).  On single-core hosts the live check is skipped.

Usage::

    PYTHONPATH=src python benchmarks/bench_procs_scalability.py          # full
    PYTHONPATH=src python benchmarks/bench_procs_scalability.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import load_bench_json, matrix, save_table, \
    write_bench_json  # noqa: E402

import numpy as np  # noqa: E402

from repro.core import DCOptions, dc_eigh  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "BENCH_procs.json")

#: Kernels that execute Python bytecode (secular iterations, deflation
#: bookkeeping) or small slice math under the GIL on the threads
#: backend.  Only the UpdateVect GEMM releases the GIL.  STEDC (the
#: pure-Python tql2 leaf solve) holds it but is left out of this set.
GIL_KERNELS = frozenset({"LAED4", "PermuteV", "Compute_deflation",
                         "CopyBackDeflated", "ComputeVect", "ApplyGivens"})

SMOKE_N = 2500
SMOKE_MTYPE = 4
SMOKE_MIN_SPEEDUP = 1.15
N_WORKERS = 2


def _interval_union(spans: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -float("inf")
    for t0, t1 in sorted(spans):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def gil_phase_stats(trace) -> dict:
    """Busy/union/overlap of the GIL-bound kernel events of a trace."""
    spans = [(ev.t_start, ev.t_end) for ev in trace.events
             if ev.name in GIL_KERNELS]
    busy = sum(t1 - t0 for t0, t1 in spans)
    union = _interval_union(spans)
    return {"gil_busy_s": busy, "gil_union_s": union,
            "gil_overlap": busy / union if union else 1.0,
            "gil_events": len(spans)}


def _timed_solve(d, e, backend: str):
    t0 = time.perf_counter()
    res = dc_eigh(d, e, backend=backend, n_workers=N_WORKERS,
                  options=DCOptions(reuse_graph=True), full_result=True)
    return time.perf_counter() - t0, res


def bench_config(mtype: int, n: int) -> dict:
    d, e = matrix(mtype, n)
    seq_s, ref = _timed_solve(d, e, "sequential")
    row = {"mtype": mtype, "n": n, "n_workers": N_WORKERS,
           "sequential_wall_s": seq_s}
    for backend in ("threads", "processes"):
        wall, res = _timed_solve(d, e, backend)
        np.testing.assert_array_equal(ref.lam, res.lam)
        np.testing.assert_array_equal(ref.V, res.V)
        row[backend] = {"wall_s": wall, **gil_phase_stats(res.trace)}
    row["procs_vs_threads_wall"] = \
        row["threads"]["wall_s"] / row["processes"]["wall_s"]
    row["procs_vs_threads_gil_union"] = \
        row["threads"]["gil_union_s"] / row["processes"]["gil_union_s"]
    return row


def _format(rows: list[dict]) -> str:
    lines = [f"{'n':>6} {'seq_s':>8} {'thr_s':>8} {'proc_s':>8} "
             f"{'thr_gil_ovl':>11} {'proc_gil_ovl':>12} {'gil_speedup':>11}"]
    for r in rows:
        lines.append(
            f"{r['n']:>6} {r['sequential_wall_s']:>8.3f} "
            f"{r['threads']['wall_s']:>8.3f} "
            f"{r['processes']['wall_s']:>8.3f} "
            f"{r['threads']['gil_overlap']:>11.2f} "
            f"{r['processes']['gil_overlap']:>12.2f} "
            f"{r['procs_vs_threads_gil_union']:>11.2f}")
    lines.append(f"(host cpu_count={os.cpu_count()}; gil_speedup is the "
                 "threads/processes ratio of GIL-phase union wall)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Smoke gate
# ---------------------------------------------------------------------------

def check_baseline() -> list[str]:
    """Structural validation of the committed BENCH_procs.json."""
    failures: list[str] = []
    try:
        results = load_bench_json(BASELINE)
    except (OSError, ValueError) as exc:
        return [f"cannot load {BASELINE}: {exc}"]
    rows = results.get("configs")
    if not rows:
        return [f"{BASELINE}: no 'configs' entries"]
    for r in rows:
        tag = f"config n={r.get('n')}"
        for backend in ("threads", "processes"):
            b = r.get(backend)
            if not b:
                failures.append(f"{tag}: missing {backend} block")
                continue
            for key in ("wall_s", "gil_busy_s", "gil_union_s",
                        "gil_overlap", "gil_events"):
                if key not in b:
                    failures.append(f"{tag}: {backend} missing {key}")
            if b.get("wall_s", 0) <= 0 or b.get("gil_events", 0) <= 0:
                failures.append(f"{tag}: {backend} has empty measurements")
            # A union of intervals can never exceed their summed length.
            if b.get("gil_union_s", 0) > b.get("gil_busy_s", 0) * 1.0001:
                failures.append(f"{tag}: {backend} union > busy "
                                "(impossible interval accounting)")
        if "procs_vs_threads_gil_union" not in r:
            failures.append(f"{tag}: missing procs_vs_threads_gil_union")
    return failures


def smoke_live() -> list[str]:
    """Re-measure the GIL-phase speedup on this host (needs >= 2 cores)."""
    cores = os.cpu_count() or 1
    if cores < 2:
        print(f"[smoke] host has {cores} core(s): the process pool has "
              "nothing to scale onto; skipping the live speedup gate "
              "(structure of the committed baseline still checked).")
        return []
    row = bench_config(SMOKE_MTYPE, SMOKE_N)
    speedup = row["procs_vs_threads_gil_union"]
    print(f"[smoke] n={SMOKE_N} type {SMOKE_MTYPE}: GIL-phase union "
          f"threads={row['threads']['gil_union_s']:.3f}s "
          f"processes={row['processes']['gil_union_s']:.3f}s "
          f"-> speedup {speedup:.2f}x "
          f"(overlap {row['processes']['gil_overlap']:.2f})")
    if speedup <= SMOKE_MIN_SPEEDUP:
        return [f"GIL-phase union speedup {speedup:.2f}x <= "
                f"{SMOKE_MIN_SPEEDUP}x on a {cores}-core host: the "
                "process pool is not overlapping the GIL-bound phases"]
    return []


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="validate the committed baseline and (on multi-"
                         "core hosts) gate the live GIL-phase speedup")
    ap.add_argument("--out", default=None,
                    help="directory for the JSON (default: repo root)")
    args = ap.parse_args(argv)

    if args.smoke:
        failures = check_baseline() + smoke_live()
        if failures:
            print("\nPROCESS-POOL SMOKE FAILURES:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print("\nsmoke OK")
        return 0

    rows = [bench_config(SMOKE_MTYPE, n) for n in (1200, 2500)]
    save_table("procs_scalability", _format(rows))
    write_bench_json("BENCH_procs", {"configs": rows},
                     directory=args.out or REPO_ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
