#!/usr/bin/env python3
"""Wall-clock ledger: the D&C solver timed against LAPACK on the same host.

Timing run (every workload, each in its own child process; writes
``OUT/ledger.json``)::

    python3 benchmarks/ledger/run.py [--seed S] [--seconds T] [--out OUT]

Traced run (per-layer metrics, closure check, and
``OUT/trace_<workload>.json`` Chrome/Perfetto traces; writes
``OUT/ledger_trace.json``)::

    python3 benchmarks/ledger/run.py --trace [--seed S] [--out OUT]

One workload in this process (the last line of stdout is its JSON
result: ``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 benchmarks/ledger/run.py --workload dense-v --seed 3 \\
        --seconds 20 --trace 0

Smoke check (small sizes, 3 rounds, timing and traced, under a minute)::

    python3 benchmarks/ledger/run.py --smoke

The solver is imported from ``src/`` of the checkout that holds this
file; no install or ``PYTHONPATH`` is needed.  See README.md for the
metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
WORKLOAD_NAMES = ("dense-v", "deflated-v", "eigvals-seq", "batch-small")
#: Measured seconds per workload run, as in BENCHMARK.json.
DEFAULT_SECONDS = 20
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 600
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run one workload in this process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="measured seconds per workload")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="traced run: per-layer metrics")
    p.add_argument("--out", type=Path, default=HERE / "out",
                   help="directory for ledger and trace files")
    p.add_argument("--smoke", action="store_true",
                   help="n=300 / n=64, 3 rounds: correctness and closure")
    return p.parse_args(argv)


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_result(name: str, result: dict) -> None:
    ctx = result["context"]
    print(f"== {name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, m in result["metrics"].items():
        reason = f"  ({m['reason']})" if "reason" in m else ""
        print(f"  {metric:<32s} {_fmt(m['value']):>12s} {m['unit']}{reason}")
    for key, value in ctx.items():
        if key not in ("samples", "round_layers"):
            print(f"  . {key:<30s} {_fmt(value)}")
    for layers in ctx.get("round_layers", []):
        print("  . closure  " + "  ".join(
            f"{k}={v:.4g}" for k, v in layers.items()))
    for msg in result["messages"]:
        print(f"  ! {msg}")


def run_one(args) -> int:
    """Run ``args.workload`` here; print its result as the last line."""
    if not (SRC / "repro").is_dir():
        print(f"ledger: no solver sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads      # imports numpy: after the BLAS variables are set
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"ledger: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.out, args.smoke)
    print_result(args.workload, result)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(result_path(args.out, args.workload, args.trace), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0 if result["correct"] else 1


def result_path(out: Path, name: str, trace: int) -> Path:
    return out / f"result_{name}{'_trace' if trace else ''}.json"


def run_child(args, name: str, trace: int) -> int:
    """Run one workload in a fresh interpreter; its output passes
    through, and its full result lands in ``result_path``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--out", str(args.out)]
    if args.smoke:
        cmd.append("--smoke")
    result_path(args.out, name, trace).unlink(missing_ok=True)
    try:
        return subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def run_all(args) -> int:
    """Every workload in a fresh child; collect results into a ledger."""
    modes = (0, 1) if args.smoke else (args.trace,)
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for trace in modes:
        ledger = {"seed": args.seed, "seconds": args.seconds,
                  "trace": trace, "smoke": args.smoke,
                  "nproc": os.cpu_count(), "workloads": {}}
        for name in WORKLOAD_NAMES:
            code = run_child(args, name, trace)
            path = result_path(args.out, name, trace)
            result = json.loads(path.read_text()) if path.exists() else None
            if code != 0 or result is None or not result["correct"]:
                print(f"ledger: {name} (trace={trace}) failed, exit {code}",
                      file=sys.stderr)
                status = 1
            ledger["workloads"][name] = result
        path = args.out / ("ledger_trace.json" if trace else "ledger.json")
        with open(path, "w") as fh:
            json.dump(ledger, fh, indent=1)
        print(f"wrote {path}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # Numpy reads these once, when first imported: the solver's two
    # workers and the LAPACK reference each get one BLAS thread.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
