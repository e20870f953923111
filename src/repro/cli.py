"""Command-line interface: ``repro-eig``.

Subcommands
-----------
``solve``  — solve a Table III matrix with a chosen solver and report
             timing + the paper's accuracy metrics.
``trace``  — run one solve (simulated machine by default,
             real threads with ``--backend threads``), print the ASCII
             execution trace (Figs. 3-4 style) plus the telemetry
             summary, and optionally dump the JSONL event log, the
             Perfetto/Chrome trace, collapsed stacks and a Prometheus
             snapshot (``--out DIR``); see docs/OBSERVABILITY.md.
``serve``  — run a persistent :class:`SolverSession` as a service with
             live observability endpoints (``/metrics``, ``/healthz``,
             ``/debug/state``, debug ``/solve``) on a stdlib HTTP
             server; optional post-mortem bundle directory.
``info``   — list the Table III matrix types.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    from .runtime.quark import QUARK_BACKENDS

    p = argparse.ArgumentParser(
        prog="repro-eig",
        description="Task-flow D&C symmetric tridiagonal eigensolver "
                    "(IPDPS 2015 reproduction)")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("solve", help="solve a test matrix")
    s.add_argument("--type", type=int, default=4, choices=range(1, 16),
                   metavar="1-15", help="Table III matrix type")
    s.add_argument("--n", type=int, default=500, help="matrix size")
    s.add_argument("--solver", default="dc",
                   choices=["dc", "mrrr", "qr", "bi", "lapack-dc"],
                   help="eigensolver")
    s.add_argument("--backend", default="sequential", choices=QUARK_BACKENDS,
                   help="runtime backend (dc solvers only)")
    s.add_argument("--workers", type=int, default=None,
                   help="worker threads / virtual cores")
    s.add_argument("--subset", default=None, metavar="I0:I1",
                   help="eigenpair index range, e.g. 0:10 "
                        "(dc and mrrr solvers)")
    s.add_argument("--jobz", default="V", choices=["V", "N"],
                   help="V = eigenpairs (default); N = eigenvalues only "
                        "via the O(n)-state reduced DAG (dc solver only)")
    s.add_argument("--repeat", type=int, default=1,
                   help="solve the problem N times (throughput mode; "
                        "reports per-solve latency percentiles)")
    s.add_argument("--no-session", action="store_true",
                   help="with --repeat: serial one-shot loop instead of "
                        "the persistent SolverSession (dc solver only)")
    s.add_argument("--reuse-graph", action="store_true",
                   help="reuse the matrix-independent DAG template "
                        "across same-shape solves (dc solver only)")
    s.add_argument("--inject", default=None, metavar="SPEC",
                   help="deterministic fault injection (dc solver only): "
                        "task:SEQ | kernel:NAME[:NTH] | p:PROB[:SEED]")
    s.add_argument("--nb", type=int, default=None,
                   help="panel width (dc solver only; default: auto)")
    s.add_argument("--seed", type=int, default=0)

    v = sub.add_parser("svd", help="D&C SVD of a random dense matrix")
    v.add_argument("--m", type=int, default=200)
    v.add_argument("--n", type=int, default=150)
    v.add_argument("--seed", type=int, default=0)

    w = sub.add_parser("workspace", help="memory trade-off report")
    w.add_argument("--n", type=int, default=10000)

    t = sub.add_parser("trace",
                       help="traced solve: gantt, telemetry summary, "
                            "and JSONL/Chrome/Prometheus export")
    t.add_argument("--type", type=int, default=4, choices=range(1, 16),
                   metavar="1-15")
    t.add_argument("--n", type=int, default=800)
    t.add_argument("--size", type=int, default=None,
                   help="matrix size (alias of --n)")
    t.add_argument("--cores", type=int, default=16)
    t.add_argument("--backend", default="simulated", choices=QUARK_BACKENDS,
                   help="runtime backend to trace (every backend "
                        "reports the ready-set depth; threads also "
                        "reports worker parking)")
    t.add_argument("--config", default="full-taskflow",
                   choices=["sequential", "parallel-gemm", "parallel-merge",
                            "full-taskflow"],
                   help="scheduler configuration (Fig. 3 variants)")
    t.add_argument("--nb", type=int, default=None,
                   help="panel width override (default: auto)")
    t.add_argument("--jobz", default="V", choices=["V", "N"],
                   help="V = eigenpairs (default); N = eigenvalues only "
                        "(trace the reduced strip DAG)")
    t.add_argument("--width", type=int, default=100, help="chart width")
    t.add_argument("--out", default=None, metavar="DIR",
                   help="dump trace.jsonl, trace_chrome.json, "
                        "trace.folded, gantt.txt, summary.txt and "
                        "telemetry.prom into DIR")
    t.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("serve",
                       help="persistent solver service with /metrics, "
                            "/healthz and /debug/state endpoints")
    q.add_argument("--port", type=int, default=9100,
                   help="HTTP port (0 = ephemeral; printed on startup)")
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--backend", default="threads", choices=QUARK_BACKENDS)
    q.add_argument("--workers", type=int, default=None,
                   help="worker threads (default: one per core)")
    q.add_argument("--duration", type=float, default=0.0,
                   help="seconds to serve before exiting "
                        "(0 = until interrupted)")
    q.add_argument("--postmortem-dir", default=None, metavar="DIR",
                   help="dump JSONL post-mortem bundles of failed solves "
                        "into DIR (also via REPRO_POSTMORTEM_DIR)")
    q.add_argument("--warm", type=int, default=0, metavar="N",
                   help="run one warm-up solve of size N before serving")

    sub.add_parser("info", help="list Table III matrix types")
    return p


def _latency_line(latencies: list[float]) -> str:
    """Latency percentiles via the streaming digest (constant memory —
    --repeat counts can be arbitrarily large)."""
    from .obs import Digest
    dg = Digest()
    dg.add_many(latencies)
    st = dg.stats()
    return (f"p50={st['p50'] * 1e3:.2f}ms  "
            f"p90={st['p90'] * 1e3:.2f}ms  "
            f"p99={st['p99'] * 1e3:.2f}ms  "
            f"(mean {st['mean'] * 1e3:.2f}ms)")


def _cmd_solve(args) -> int:
    from .analysis import orthogonality_error, tridiagonal_residual
    from .matrices import matrix_description, test_matrix

    d, e = test_matrix(args.type, args.n, seed=args.seed)
    print(f"type {args.type} (n={args.n}): {matrix_description(args.type)}")
    subset = None
    if getattr(args, "subset", None):
        lo, _, hi = args.subset.partition(":")
        subset = np.arange(int(lo), int(hi) if hi else int(lo) + 1)
    repeat = max(1, getattr(args, "repeat", 1))
    use_session = repeat > 1 and not getattr(args, "no_session", False)
    latencies: list[float] = []
    t0 = time.perf_counter()
    if args.solver == "dc":
        from . import SolverSession, dc_eigh
        from .core import DCOptions
        from .errors import ReproError
        from .runtime.faults import FaultSpec
        inject = getattr(args, "inject", None)
        opts = DCOptions(jobz=getattr(args, "jobz", "V"),
                         reuse_graph=bool(getattr(args, "reuse_graph",
                                                  False)),
                         fault_injection=(FaultSpec.parse(inject)
                                          if inject else None),
                         nb=getattr(args, "nb", None))
        try:
            if use_session:
                # Repeated solves share one session: persistent workers,
                # pooled workspaces, concurrent fused execution on the
                # threads backend.
                with SolverSession(backend=args.backend,
                                   n_workers=args.workers,
                                   options=opts) as session:
                    handles = [session.submit(d, e, subset=subset)
                               for _ in range(repeat)]
                    for h in handles:
                        lam, V = h.result()
                    latencies = [h.latency_s for h in handles]
            else:
                for _ in range(repeat):
                    ts = time.perf_counter()
                    lam, V = dc_eigh(d, e, options=opts,
                                     backend=args.backend,
                                     n_workers=args.workers, subset=subset)
                    latencies.append(time.perf_counter() - ts)
        except ReproError as exc:
            print(f"error   : {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    elif args.solver == "lapack-dc":
        from .baselines import lapack_dc_eigh
        lam, V = lapack_dc_eigh(d, e, backend=args.backend,
                                n_workers=args.workers)
    elif args.solver == "mrrr":
        from . import mrrr_eigh
        lam, V = mrrr_eigh(d, e, subset=subset)
    elif args.solver == "qr":
        from .kernels import steqr
        lam, V = steqr(d, e)
    else:
        from .baselines import bisect_invit_eigh
        lam, V = bisect_invit_eigh(d, e)
    wall = time.perf_counter() - t0
    dt = wall / repeat
    print(f"solver  : {args.solver}")
    if repeat > 1:
        mode = "session" if (use_session and args.solver == "dc") \
            else "one-shot loop"
        print(f"repeat  : {repeat} solves via {mode} "
              f"({wall:.3f} s wall, {repeat / wall:.1f} solves/s)")
        if latencies:
            print(f"latency : {_latency_line(latencies)}")
    print(f"time    : {dt:.3f} s")
    print(f"lambda  : [{lam[0]:.6g} .. {lam[-1]:.6g}]")
    if V is None:
        print("orth    : n/a (jobz=N, eigenvalues only)")
        print("resid   : n/a (jobz=N, eigenvalues only)")
    else:
        print(f"orth    : {orthogonality_error(V):.2e}")
        print(f"resid   : {tridiagonal_residual(d, e, lam, V):.2e}")
    return 0


def _cmd_trace(args) -> int:
    import json
    import os

    from . import dc_eigh
    from .core.options import FIG3_CONFIGS
    from .errors import ReproError
    from .matrices import test_matrix
    from .obs import (chrome_trace, collapsed_stacks, prometheus_text,
                      solve_metrics, telemetry_summary, write_jsonl)

    n = args.size if args.size is not None else args.n
    d, e = test_matrix(args.type, n, seed=args.seed)
    opts = FIG3_CONFIGS[args.config].with_(minpart=max(32, n // 8))
    if getattr(args, "nb", None) is not None:
        opts = opts.with_(nb=args.nb)
    if getattr(args, "jobz", "V") != "V":
        opts = opts.with_(jobz=args.jobz)
    try:
        res = dc_eigh(d, e, options=opts, backend=args.backend,
                      n_workers=args.cores, full_result=True)
    except ReproError as exc:
        print(f"error   : {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    metrics = solve_metrics(res)
    gantt = res.trace.gantt(width=args.width)
    summary = telemetry_summary(metrics, res.trace)
    print(gantt)
    print()
    print(summary)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "trace.jsonl"), "w") as fh:
            n_lines = write_jsonl(fh, metrics, res.trace)
        with open(os.path.join(args.out, "trace_chrome.json"), "w") as fh:
            json.dump(chrome_trace(res.trace, metrics), fh)
        with open(os.path.join(args.out, "trace.folded"), "w") as fh:
            fh.write(collapsed_stacks(res.trace))
        with open(os.path.join(args.out, "gantt.txt"), "w") as fh:
            fh.write(gantt + "\n")
        with open(os.path.join(args.out, "summary.txt"), "w") as fh:
            fh.write(summary + "\n")
        with open(os.path.join(args.out, "telemetry.prom"), "w") as fh:
            fh.write(prometheus_text(metrics, res.trace))
        print(f"\n[wrote trace.jsonl ({n_lines} lines), trace_chrome.json, "
              f"trace.folded, gantt.txt, summary.txt, telemetry.prom to "
              f"{args.out}]")
    return 0


def _cmd_serve(args) -> int:
    from . import SolverSession
    from .core import DCOptions

    opts = DCOptions(postmortem_dir=args.postmortem_dir)
    session = SolverSession(backend=args.backend, n_workers=args.workers,
                            options=opts, serve_port=args.port,
                            serve_host=args.host)
    try:
        print(f"serving {args.backend} session "
              f"({session.n_workers} workers) on {session.server.address}"
              f"  [/metrics /healthz /debug/state /solve]", flush=True)
        if args.warm > 0:
            from .matrices import test_matrix
            d, e = test_matrix(4, args.warm, seed=0)
            session.solve(d, e)
            print(f"warm-up solve n={args.warm} done", flush=True)
        if args.duration > 0:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        session.close()
    return 0


def _cmd_svd(args) -> int:
    from .core.svd import svd

    rng = np.random.default_rng(args.seed)
    a = rng.normal(size=(args.m, args.n))
    t0 = time.perf_counter()
    u, s, vt = svd(a)
    dt = time.perf_counter() - t0
    resid = np.max(np.abs((u * s[None, :]) @ vt - a))
    print(f"dense SVD {args.m}x{args.n} via bidiagonal D&C (TGK)")
    print(f"time    : {dt:.3f} s")
    print(f"sigma   : [{s[-1]:.6g} .. {s[0]:.6g}]")
    print(f"resid   : {resid:.2e}")
    return 0


def _cmd_workspace(args) -> int:
    from .analysis import workspace_report
    print(workspace_report(args.n))
    return 0


def _cmd_info() -> int:
    from .matrices import MATRIX_TYPES, matrix_description
    print("Table III test matrices (k = 1e6, ulp = DBL_EPSILON):")
    for t in MATRIX_TYPES:
        print(f"  {t:2d}  {matrix_description(t)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.cmd == "solve":
        return _cmd_solve(args)
    if args.cmd == "trace":
        return _cmd_trace(args)
    if args.cmd == "serve":
        return _cmd_serve(args)
    if args.cmd == "svd":
        return _cmd_svd(args)
    if args.cmd == "workspace":
        return _cmd_workspace(args)
    return _cmd_info()


if __name__ == "__main__":
    sys.exit(main())
