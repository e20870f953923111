"""Eigenvalue-only mode benchmark: throughput and tracked high water.

Compares the three ways this repo computes a full spectrum —

``dc-V``    task-flow D&C with eigenvectors (``jobz='V'``, the default),
``dc-N``    task-flow D&C eigenvalues-only (``jobz='N'``: the reduced
            boundary-row-strip DAG, O(n) auxiliary state),
``mrrr``    the sequential MRRR baseline (O(n) workspace by design) —

on the type-4 Table III matrix at n in {2500, 5000, 10000}.  Two
series per solver:

* **throughput** — wall time of one warm solve (threads backend for the
  D&C modes; MRRR is sequential).  Informational on shared runners.
* **tracked high water** — the ``workspace.high_water_bytes`` gauge of
  the solve's telemetry (``repro.obs.solve_metrics``; D&C modes): the
  memory model evaluated at the root merge's *observed* secular rank
  k, not the worst case; MRRR is reported from the ``analysis.memory``
  model alone (it allocates per-representation vectors, nothing is
  gauged).  Deterministic.

The acceptance gate (checked by ``--smoke`` against the committed
``BENCH_jobz.json``): the n=5000 tracked high water of ``dc-N`` must be
at most 10% of ``dc-V``'s.  The smoke run also re-measures a small
shape live — gauge ratio plus bitwise eigenvalue parity between the
modes — so the gate cannot rot while the committed JSON stays green.

Usage::

    PYTHONPATH=src python benchmarks/bench_jobz.py           # full run
    PYTHONPATH=src python benchmarks/bench_jobz.py --smoke   # CI check
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

from repro import dc_eigh, mrrr_eigh  # noqa: E402
from repro.analysis import mrrr_workspace_bytes  # noqa: E402
from repro.core import DCOptions  # noqa: E402
from repro.obs import solve_metrics  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "BENCH_jobz.json")

MTYPE = 4
GRID_SIZES = [2500, 5000, 10000]
#: Largest size the sequential Python MRRR baseline runs at.  Its
#: clusters on the uniformly-spaced type-4 spectrum tighten with n —
#: n=2500 takes ~20 s but n=5000 already exceeds 15 *minutes* — so the
#: larger wall-time cells are reported as missing rather than run; the
#: workspace-model cells are still filled in.
MRRR_MAX_N = 2500
GATE_N = 5000
GATE_RATIO = 0.10
SMOKE_N = 800


def _dc(d, e, jobz: str) -> tuple[float, int]:
    """(warm wall seconds, tracked high-water bytes) of one D&C solve."""
    t0 = time.perf_counter()
    res = dc_eigh(d, e, options=DCOptions(jobz=jobz), backend="threads",
                  full_result=True)
    dt = time.perf_counter() - t0
    return dt, int(solve_metrics(res).gauges["workspace.high_water_bytes"])


def measure_size(n: int, with_mrrr: bool = True) -> dict:
    d, e = matrix(MTYPE, n)
    rec: dict = {"mtype": MTYPE, "n": n, "solve_s": {},
                 "high_water_bytes": {}}
    for jobz in ("V", "N"):
        dt, hw = _dc(d, e, jobz)
        rec["solve_s"][f"dc-{jobz}"] = dt
        rec["high_water_bytes"][f"dc-{jobz}"] = hw
    if with_mrrr:
        t0 = time.perf_counter()
        mrrr_eigh(d, e)
        rec["solve_s"]["mrrr"] = time.perf_counter() - t0
    rec["high_water_bytes"]["mrrr"] = mrrr_workspace_bytes(n)
    rec["hw_ratio_n_over_v"] = (rec["high_water_bytes"]["dc-N"]
                                / rec["high_water_bytes"]["dc-V"])
    return rec


def gate_verdict(grid: list[dict]) -> dict:
    """N tracked high water <= 10% of V at the gate size."""
    at_gate = [r for r in grid if r["n"] == GATE_N]
    ok = bool(at_gate) and all(r["hw_ratio_n_over_v"] <= GATE_RATIO
                               for r in at_gate)
    return {"gate_n": GATE_N, "max_ratio": GATE_RATIO,
            "ratios": {str(r["n"]): r["hw_ratio_n_over_v"] for r in grid},
            "ok": ok}


def _table(grid: list[dict]) -> str:
    lines = [f"type {MTYPE} matrix, threads backend "
             f"({os.cpu_count()} cpus); high water = tracked "
             "workspace.high_water_bytes gauge (mrrr: model)",
             f"{'n':>6} | {'dc-V':>10} {'dc-N':>10} {'mrrr':>10} | "
             f"{'hw dc-V':>12} {'hw dc-N':>12} {'hw mrrr':>12} | N/V"]
    for r in grid:
        s, hw = r["solve_s"], r["high_water_bytes"]
        lines.append(
            f"{r['n']:>6} | "
            f"{s['dc-V']:>9.2f}s {s['dc-N']:>9.2f}s "
            + (f"{s['mrrr']:>9.2f}s" if "mrrr" in s else f"{'--':>10}")
            + f" | {hw['dc-V'] / 1e6:>10.2f}MB {hw['dc-N'] / 1e6:>10.2f}MB "
            f"{hw['mrrr'] / 1e6:>10.2f}MB | "
            f"{100 * r['hw_ratio_n_over_v']:.2f}%")
    return "\n".join(lines)


def run_full() -> dict:
    print(f"[grid] type {MTYPE}, n in {GRID_SIZES} "
          f"(mrrr wall time capped at n={MRRR_MAX_N})")
    grid = []
    for n in GRID_SIZES:
        rec = measure_size(n, with_mrrr=n <= MRRR_MAX_N)
        s = rec["solve_s"]
        mr = (f"mrrr {s['mrrr']:7.2f}s" if "mrrr" in s
              else "mrrr  (skipped)")
        print(f"  n={n:6d}: dc-V {s['dc-V']:7.2f}s  dc-N {s['dc-N']:7.2f}s"
              f"  {mr}  "
              f"high-water N/V {100 * rec['hw_ratio_n_over_v']:.2f}%",
              flush=True)
        grid.append(rec)
    gate = gate_verdict(grid)
    print(f"[gate] dc-N high water <= {100 * GATE_RATIO:.0f}% of dc-V at "
          f"n={GATE_N}: " + ("OK" if gate["ok"] else "FAIL"))
    save_table("jobz", _table(grid))
    return {"grid": grid, "gate": gate}


def check_smoke(baseline_path: str = BASELINE) -> list[str]:
    """Deterministic CI check: committed gate + live small-shape gate."""
    failures: list[str] = []
    if not os.path.exists(baseline_path):
        failures.append(f"missing committed baseline {baseline_path}")
    else:
        base = load_bench_json(baseline_path)
        gate = gate_verdict(base.get("grid", []))
        if not gate["ok"]:
            failures.append(
                f"committed grid fails the gate: dc-N high water > "
                f"{100 * GATE_RATIO:.0f}% of dc-V at n={GATE_N} "
                f"({gate['ratios']})")

    # Live re-measurement: the tracked gauge ratio must hold on a small
    # shape too (the O(n) vs O(n^2) separation only widens with n), and
    # the two modes must agree bitwise on the eigenvalues.
    rec = measure_size(SMOKE_N, with_mrrr=False)
    print(f"  live n={SMOKE_N}: high-water N/V "
          f"{100 * rec['hw_ratio_n_over_v']:.2f}%")
    if rec["hw_ratio_n_over_v"] > GATE_RATIO:
        failures.append(
            f"live n={SMOKE_N}: dc-N high water is "
            f"{100 * rec['hw_ratio_n_over_v']:.2f}% of dc-V "
            f"(gate {100 * GATE_RATIO:.0f}%)")
    d, e = matrix(MTYPE, SMOKE_N)
    lam_v, _ = dc_eigh(d, e)
    lam_n, _ = dc_eigh(d, e, options=DCOptions(jobz="N"))
    if not np.array_equal(lam_v, lam_n):
        failures.append(
            f"live n={SMOKE_N}: jobz='N' eigenvalues are not bitwise "
            "identical to jobz='V'")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small live check; fail on regression vs the "
                         "committed BENCH_jobz.json")
    ap.add_argument("--out", default=None,
                    help="directory for the JSON (default: repo root)")
    args = ap.parse_args(argv)

    if args.smoke:
        print(f"[smoke] live shape n={SMOKE_N} + committed gate")
        failures = check_smoke()
        if failures:
            print("\nREGRESSIONS DETECTED:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print("\nsmoke OK (committed gate holds, live ratio + bitwise "
              "parity hold)")
        return 0

    payload = run_full()
    path = write_bench_json("BENCH_jobz", payload,
                            directory=args.out or REPO_ROOT)
    print(f"[saved to {path}]")
    return 0 if payload["gate"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
