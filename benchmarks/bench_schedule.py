"""Panel-width benchmark: level-adaptive panel widths vs the global nb.

Measures the deterministic simulated makespan of the Fig-6 matrix
shapes (types 2/3/4) on the 16-core machine under two panel-width
plans (every task at priority 0, submission order, in both):

``none``      the global panel width ``DCOptions.effective_nb``.
``adaptive``  level-adaptive panel widths (``adaptive_nb=True``).

All timings are *virtual* (discrete-event simulation on the machine
model), so results are bit-for-bit reproducible on any host — unlike
wall-clock gates, this cannot be flaky on shared CI runners.

The gate machine charges the runtime's per-task dispatch cost
(``repro.core.options.TASK_OVERHEAD_S``, 15 us; the wall-clock ledger
measures 13-22 us per task on two workers) rather than the paper
machine's 2 us: panel widths matter exactly when dispatch overhead is
not negligible (the nb trade-off of the paper's Sec. IV).

Usage::

    PYTHONPATH=src python benchmarks/bench_schedule.py           # full run
    PYTHONPATH=src python benchmarks/bench_schedule.py --smoke   # CI check

The full run writes ``BENCH_schedule.json`` to the repo root with the
n >= 2500 grid and the gate verdict (>= 10% improvement of ``adaptive``
over ``none`` on at least 3 shapes).  ``--smoke`` re-runs only the
small shapes (n <= 1200, seconds not minutes), checks them against the
committed baseline, and re-validates that the committed grid still
satisfies the gate.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SolvedGraph, load_bench_json, matrix, \
    write_bench_json  # noqa: E402

from repro.core import DCOptions  # noqa: E402
from repro.core.options import TASK_OVERHEAD_S  # noqa: E402
from repro.runtime import Machine  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "BENCH_schedule.json")

N_WORKERS = 16
GATE_MACHINE = Machine(task_overhead=TASK_OVERHEAD_S)

#: The Fig-6 grid (n >= 2500) the acceptance gate runs on.  Type 2 gets
#: a third size: the high-deflation shapes are the overhead-bound ones
#: where panel widths buy the most, so they anchor the gate.
GATE_SHAPES = [(2, 2500), (3, 2500), (4, 2500),
               (2, 2800),
               (2, 3000), (3, 3000), (4, 3000)]
GATE_THRESHOLD = 0.10
GATE_MIN_SHAPES = 3

#: Small deterministic shapes for the CI smoke re-measurement.
SMOKE_SHAPES = [(2, 600), (3, 1200), (4, 1200)]

ABLATIONS = {
    "none": DCOptions(),
    "adaptive": DCOptions(adaptive_nb=True, target_parallelism=N_WORKERS),
}


def measure_shape(mtype: int, n: int,
                  ablations: dict[str, DCOptions] = ABLATIONS) -> dict:
    """Simulated makespan of one (type, n) shape under each ablation."""
    d, e = matrix(mtype, n)
    rec = {"mtype": mtype, "n": n, "makespan_s": {}, "n_tasks": {},
           "improvement": {}}
    for name, opts in ablations.items():
        sg = SolvedGraph(d, e, opts)
        rec["makespan_s"][name] = sg.makespan(N_WORKERS, GATE_MACHINE)
        rec["n_tasks"][name] = len(sg.graph.tasks)
    base = rec["makespan_s"]["none"]
    for name in ablations:
        rec["improvement"][name] = 1.0 - rec["makespan_s"][name] / base
    imp = rec["improvement"]
    print(f"  type{mtype} n={n:5d}: none {base * 1e3:9.3f} ms   "
          f"adaptive {100 * imp['adaptive']:+6.2f}%")
    return rec


def gate_verdict(grid: list[dict]) -> dict:
    """Evaluate the >= 10%-on->=3-shapes acceptance gate over a grid."""
    passing = [[r["mtype"], r["n"]] for r in grid
               if r["n"] >= 2500
               and r["improvement"]["adaptive"] >= GATE_THRESHOLD]
    return {"threshold": GATE_THRESHOLD, "min_shapes": GATE_MIN_SHAPES,
            "n_workers": N_WORKERS, "passing": passing,
            "ok": len(passing) >= GATE_MIN_SHAPES}


def machine_block() -> dict:
    m = GATE_MACHINE
    return {"n_cores": m.n_cores, "n_sockets": m.n_sockets,
            "core_gflops": m.core_gflops,
            "kernel_efficiency": m.kernel_efficiency,
            "socket_bw": m.socket_bw, "stream_bw": m.stream_bw,
            "task_overhead": m.task_overhead}


def run_full() -> dict:
    print(f"[grid] Fig-6 shapes, {N_WORKERS} virtual cores, "
          f"task overhead {GATE_MACHINE.task_overhead * 1e6:.0f} us")
    grid = [measure_shape(mt, n) for mt, n in GATE_SHAPES]
    gate = gate_verdict(grid)
    print(f"[gate] adaptive >= {100 * GATE_THRESHOLD:.0f}% faster than "
          f"'none' on {len(gate['passing'])} shapes "
          f"(need {GATE_MIN_SHAPES}): "
          + ("OK" if gate["ok"] else "FAIL")
          + f"  {gate['passing']}")
    print("[smoke] small shapes (CI reference)")
    smoke = [measure_shape(mt, n) for mt, n in SMOKE_SHAPES]
    return {"machine": machine_block(), "grid": grid, "gate": gate,
            "smoke": smoke}


def check_smoke(baseline_path: str = BASELINE,
                slack_pp: float = 5.0) -> list[str]:
    """CI regression check against the committed ``BENCH_schedule.json``.

    Two parts, both deterministic:

    1. The committed n >= 2500 grid must still satisfy the gate (>= 10%
       improvement on >= ``GATE_MIN_SHAPES`` shapes) — catches edits
       that water the baseline down.
    2. The small smoke shapes are re-measured in virtual time and the
       ``adaptive`` improvement must not fall more than ``slack_pp``
       percentage points below the committed value — catches scheduling
       regressions without ever touching the expensive n >= 2500 grid.
       (The slack absorbs tiny deflation-count differences across BLAS/
       numpy builds; virtual time has no wall-clock noise.)
    """
    if not os.path.exists(baseline_path):
        return [f"missing committed baseline {baseline_path}"]
    base = load_bench_json(baseline_path)
    failures: list[str] = []

    gate = gate_verdict(base.get("grid", []))
    if not gate["ok"]:
        failures.append(
            f"committed grid fails the gate: only {len(gate['passing'])} "
            f"shapes >= {100 * GATE_THRESHOLD:.0f}% "
            f"(need {GATE_MIN_SHAPES})")

    committed = {(r["mtype"], r["n"]): r for r in base.get("smoke", [])}
    for mt, n in SMOKE_SHAPES:
        ref = committed.get((mt, n))
        if ref is None:
            failures.append(f"baseline smoke misses shape type{mt} n={n}")
            continue
        cur = measure_shape(mt, n)
        drop = 100 * (ref["improvement"]["adaptive"]
                      - cur["improvement"]["adaptive"])
        if drop > slack_pp:
            failures.append(
                f"type{mt} n={n}: 'adaptive' improvement "
                f"{100 * cur['improvement']['adaptive']:.2f}% fell "
                f"{drop:.1f}pp below committed "
                f"{100 * ref['improvement']['adaptive']:.2f}%")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small shapes only; fail on regression vs the "
                         "committed BENCH_schedule.json")
    ap.add_argument("--out", default=None,
                    help="directory for the JSON (default: repo root)")
    args = ap.parse_args(argv)

    if args.smoke:
        print(f"[smoke] shapes {SMOKE_SHAPES}, {N_WORKERS} virtual cores")
        failures = check_smoke()
        if failures:
            print("\nREGRESSIONS DETECTED:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print("\nsmoke OK (committed gate holds, no scheduling regression)")
        return 0

    payload = run_full()
    write_bench_json("BENCH_schedule", payload,
                     directory=args.out or REPO_ROOT)
    return 0 if payload["gate"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
