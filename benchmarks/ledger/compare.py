#!/usr/bin/env python3
"""Compare ledger runs: one side against a baseline, per workload and metric.

    python3 benchmarks/ledger/compare.py BASE NEW [NEW2 ...]

Each side is a ``ledger.json`` (or ``ledger_trace.json``) written by
``run.py``, or a directory: every ``ledger*.json`` below it counts as one
run of that side.  For each workload and metric the script prints each
side's median, quartiles and run count, the change against the first
side, the bound from ``BENCHMARK.json``, and a verdict:

* ``improved``   every run of the side beats every baseline run (two or
  more runs each) and the medians differ by more than the baseline's
  quartile spread;
* ``unresolved`` the quartile spread of either side, as a share of its
  median, exceeds the bound;
* ``regressed``  the median is worse than the baseline's by more than the
  bound;
* ``unchanged``  otherwise.

Metrics without a bound (per-layer metrics, and end-to-end metrics that
are not in ``BENCHMARK.json``) are listed without a verdict.  Exits 1
when any verdict is ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_side(path: Path) -> list[dict]:
    files = sorted(path.rglob("ledger*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no ledger files under {path}")
    return [json.loads(f.read_text()) for f in files]


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    out = []
    for run in runs:
        result = run["workloads"].get(workload) or {}
        value = result.get("metrics", {}).get(metric, {}).get("value")
        if value is not None:
            out.append(float(value))
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def spread(xs: list[float]) -> float:
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], new: list[float], bound, better: str) -> str:
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    worse = sign * (mn - mb) / abs(mb) if mb else 0.0
    separated = len(base) >= 2 and len(new) >= 2 and (
        max(new) < min(base) if better == "lower" else min(new) > max(base))
    if separated and -worse > spread(base):
        return "improved"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    return "unchanged"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("sides", nargs="+", type=Path,
                   help="ledger files or directories; the first is the "
                        "baseline")
    p.add_argument("--benchmark", type=Path, default=BENCHMARK,
                   help="BENCHMARK.json with the bounds")
    args = p.parse_args(argv)
    if len(args.sides) < 2:
        p.error("give a baseline and at least one side to compare")
    spec = json.loads(args.benchmark.read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    sides = [load_side(s) for s in args.sides]
    base = sides[0]
    workloads = list(base[0]["workloads"])
    regressed = False
    print(f"{'workload':<12} {'metric':<30} {'side':<5} "
          f"{'median':>11} {'q1':>11} {'q3':>11} {'n':>3} "
          f"{'change':>8} {'bound':>6}  verdict")
    for w in workloads:
        metrics = (base[0]["workloads"].get(w) or {}).get("metrics", {})
        for m in metrics:
            bvals = values(base, w, m)
            if not bvals:
                continue
            spec_m = gated.get(m, {})
            bound = spec_m.get("bound")
            q1, med, q3 = quartiles(bvals)
            print(f"{w:<12} {m:<30} {'base':<5} {med:>11.5g} {q1:>11.5g} "
                  f"{q3:>11.5g} {len(bvals):>3}")
            for k, side in enumerate(sides[1:], 1):
                nvals = values(side, w, m)
                if not nvals:
                    print(f"{'':<12} {'':<30} {k:<5} (missing)")
                    continue
                q1, med, q3 = quartiles(nvals)
                mb = statistics.median(bvals)
                change = (med - mb) / abs(mb) if mb else 0.0
                v = verdict(bvals, nvals, bound,
                            spec_m.get("better", "lower"))
                regressed |= v == "regressed"
                bstr = f"{bound:.0%}" if bound is not None else "-"
                print(f"{'':<12} {'':<30} {k:<5} {med:>11.5g} {q1:>11.5g} "
                      f"{q3:>11.5g} {len(nvals):>3} {change:>+8.1%} "
                      f"{bstr:>6}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
