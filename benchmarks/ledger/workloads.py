"""The ledger's four workloads and the in-process timing and traced runs.

Import this module only after the BLAS thread variables are set (see
``run.py``): numpy reads them once, at import.

The timing run touches the solver through ``repro.SolverSession``,
``DCOptions(jobz=...)``, ``session.stats()`` and, for cold starts, the
graph template cache; correctness uses ``repro.analysis``.  Everything
else, the layer probes included, lives in ``tracing.py`` and runs only
in the traced run.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from repro import SolverSession
from repro.analysis import orthogonality_error, tridiagonal_residual
from repro.core import DCOptions

import inputs
import tracing

try:
    from repro.core.graph_cache import graph_template_cache
except ImportError:         # no template cache: a cold start has none to clear
    graph_template_cache = None

EPS = np.finfo(np.float64).eps
#: Solver threads: one per CPU of the 2-CPU reference host.
N_WORKERS = 2
#: Cold starts per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Accuracy gate of tests/test_accuracy_table3.py (orth and resid).
ACCURACY_GATE = 1e-15


@dataclass(frozen=True)
class Workload:
    name: str
    mtype: int          # Table III matrix type
    n: int
    jobz: str
    backend: str
    batch: int = 1      # problems submitted per round
    pool: int = 1       # distinct problems the rounds draw from


# Why each workload exists, and which layers it stresses, is recorded in
# BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("dense-v", 4, 2000, "V", "threads"),
    Workload("deflated-v", 2, 2000, "V", "threads"),
    Workload("eigvals-seq", 4, 2000, "N", "sequential"),
    Workload("batch-small", 4, 256, "V", "threads", batch=8, pool=32),
)}


def smoke_variant(w: Workload) -> Workload:
    """The same workload at smoke size (n=300, or n=64 for batches)."""
    return dataclasses.replace(w, n=64 if w.batch > 1 else 300)


def problem_seeds(w: Workload, seed: int) -> list[int]:
    return [seed * w.pool + i for i in range(w.pool)]


def round_plan(w: Workload, seed: int):
    """Endless sequence of per-round problem indices, fixed by ``seed``."""
    rng = np.random.default_rng(seed)
    while True:
        if w.pool == 1:
            yield [0]
        else:
            yield [int(i) for i in rng.choice(w.pool, w.batch,
                                              replace=False)]


def make_session(w: Workload) -> SolverSession:
    return SolverSession(
        backend=w.backend,
        n_workers=N_WORKERS if w.backend == "threads" else None,
        options=DCOptions(jobz=w.jobz))


def lapack_eigenvalues(d, e, jobz: str) -> np.ndarray:
    """The same-host LAPACK reference: ``dstevd`` for 'V', ``dsterf``
    for 'N'."""
    if jobz == "V":
        lam, _, info = lapack.dstevd(d, e, compute_v=1)
    else:
        lam, info = lapack.dsterf(d, e)
    if info != 0:
        raise RuntimeError(f"LAPACK reference failed with info={info}")
    return lam


def time_reference(problems, idx, jobz: str) -> float:
    t0 = time.perf_counter()
    for i in idx:
        lapack_eigenvalues(*problems[i], jobz)
    return time.perf_counter() - t0


class Checker:
    """Correctness of every solve.

    The first solve of each problem must pass the accuracy gate (orth
    and resid below :data:`ACCURACY_GATE` for 'V') and agree with LAPACK
    to within n ulps of ‖T‖; every later solve of it must be bitwise
    equal to that first one, so the gate covers them all.
    """

    def __init__(self, problems, jobz: str):
        self.problems = problems
        self.jobz = jobz
        self.first: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.orth_ulps: Optional[float] = None
        self.resid_ulps: Optional[float] = None
        self.eig_err_ulps = 0.0

    def _fail(self, idx: int, why: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(f"problem {idx}: {why}")

    def check(self, idx: int, outcome) -> bool:
        """Record one solve: ``outcome`` is ``(lam, V)``, a ``DCResult``
        or the exception it raised.  True when the solve is correct."""
        self.attempted += 1
        if isinstance(outcome, BaseException):
            self._fail(idx, f"{type(outcome).__name__}: {outcome}")
            return False
        lam, V = (outcome.lam, outcome.V) if hasattr(outcome, "lam") \
            else outcome
        first = self.first.get(idx)
        if first is not None:
            same = np.array_equal(lam, first[0]) and (
                V is None if first[1] is None
                else V is not None and np.array_equal(V, first[1]))
            if not same:
                self._fail(idx, "not bitwise equal to the first solve")
            return same
        self.first[idx] = (lam, V)
        d, e = self.problems[idx]
        errors = []
        norm = max(float(np.max(np.abs(d))),
                   float(np.max(np.abs(e))) if e.size else 0.0) or 1.0
        ref = lapack_eigenvalues(d, e, self.jobz)
        eig = float(np.max(np.abs(lam - ref))) / (norm * EPS)
        self.eig_err_ulps = max(self.eig_err_ulps, eig)
        if not eig <= d.shape[0]:
            errors.append(f"eigenvalue error {eig:.3g} ulps > n")
        if V is not None:
            orth = orthogonality_error(V)
            resid = tridiagonal_residual(d, e, lam, V)
            self.orth_ulps = max(self.orth_ulps or 0.0, orth / EPS)
            self.resid_ulps = max(self.resid_ulps or 0.0, resid / EPS)
            if not orth < ACCURACY_GATE:
                errors.append(f"orth {orth:.3g} >= {ACCURACY_GATE:g}")
            if not resid < ACCURACY_GATE:
                errors.append(f"resid {resid:.3g} >= {ACCURACY_GATE:g}")
        if errors:
            self._fail(idx, "; ".join(errors))
        return not errors


_solve_ids = itertools.count(1)


def solve_round(session, problems, idx, *, full: bool = False,
                tracer: Optional[tracing.Tracer] = None):
    """Submit the round's problems, then wait for each in order.

    Returns the outcomes (results or raised exceptions) and the wall
    time from the first submit to the last result.
    """
    sids = [next(_solve_ids) for _ in idx]
    handles = []
    t0 = time.perf_counter()
    for sid, i in zip(sids, idx):
        if tracer is not None:
            tracer.solve = sid
        try:
            handles.append(session.submit(*problems[i], full_result=full))
        except Exception as exc:          # recorded as a failed solve
            handles.append(exc)
    outcomes = []
    for sid, h in zip(sids, handles):
        if tracer is not None:
            tracer.solve = sid
        if isinstance(h, Exception):
            outcomes.append(h)
            continue
        try:
            outcomes.append(h.result())
        except Exception as exc:          # recorded as a failed solve
            outcomes.append(exc)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.solve = None
    return outcomes, wall


def check_round(checker: Checker, idx, outcomes) -> bool:
    ok = True
    for i, out in zip(idx, outcomes):
        if isinstance(out, BaseException):
            traceback.print_exception(out, file=sys.stderr)
        ok = checker.check(i, out) and ok
    return ok


def host_context() -> dict:
    return {"nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


# ---------------------------------------------------------------------------
# Timing run
# ---------------------------------------------------------------------------


def cold_starts(w: Workload, problems, idx, checker: Checker):
    """``SETUP_REPS`` cold starts; returns their times and the last,
    still open, session."""
    times = []
    session = None
    for _ in range(SETUP_REPS):
        if session is not None:
            session.close()
        if graph_template_cache is not None:
            graph_template_cache.clear()
        t0 = time.perf_counter()
        session = make_session(w)
        outcomes, _ = solve_round(session, problems, idx)
        times.append(time.perf_counter() - t0)
        check_round(checker, idx, outcomes)
    return times, session


def timing_run(w: Workload, seed: int, seconds: float,
               min_rounds: int) -> dict:
    problems, gen_s = inputs.problems(w.mtype, w.n, problem_seeds(w, seed))
    plan = round_plan(w, seed)
    checker = Checker(problems, w.jobz)
    idx = next(plan)
    setup, session = cold_starts(w, problems, idx, checker)
    prog, ref = [], []
    rounds = 0
    t_end = time.perf_counter() + seconds
    try:
        while rounds < min_rounds or time.perf_counter() < t_end:
            ref.append(time_reference(problems, idx, w.jobz))
            outcomes, wall = solve_round(session, problems, idx)
            if check_round(checker, idx, outcomes):
                prog.append(wall)
            rounds += 1
            idx = next(plan)
        stats = session.stats()
    finally:
        session.close()
    ref_p50 = statistics.median(ref)
    metrics = {
        "xlapack_p50": _metric(statistics.median(prog) / ref_p50
                               if prog else None, "ratio"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }
    # The highest percentile with at least ten samples beyond it.
    tail = 100 * (1 - 10 / len(prog)) if len(prog) > 20 else None
    context = {
        "rounds": rounds, "solves_per_round": w.batch,
        "xlapack_tail": ({"percentile": round(tail, 1),
                          "value": float(np.percentile(prog, tail))
                          / ref_p50, "samples": len(prog)}
                         if tail else None),
        "solve_s_p50": statistics.median(prog) if prog else None,
        "lapack_s_p50": ref_p50,
        "error_rate": checker.failed / checker.attempted,
        "orth_ulps": checker.orth_ulps, "resid_ulps": checker.resid_ulps,
        "eig_err_ulps": checker.eig_err_ulps,
        "input_gen_s": gen_s,
        "workspace_high_water_mb":
            stats.get("workspace", {}).get("high_water_bytes", 0) / 2 ** 20,
        **host_context(),
        "samples": {"program_s": prog, "lapack_s": ref, "setup_s": setup},
    }
    return _result(checker, metrics, context)


def _metric(value, unit: str, reason: Optional[str] = None) -> dict:
    out = {"value": value, "unit": unit}
    if reason:
        out["reason"] = reason
    return out


def _result(checker: Checker, metrics: dict, context: dict) -> dict:
    return {"correct": checker.failed == 0 and checker.attempted > 0
            and context.get("closure_ok", True),
            "attempted": checker.attempted, "failed": checker.failed,
            "metrics": metrics, "context": context,
            "messages": checker.messages}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

#: Per-layer metric -> the probe it cannot be computed without.
_PROBE_OF = {
    "session.validate_s": "session.validate",
    "session.context_s": "session.context",
    "session.submit_s": "session.submit",
    "session.finalize_s": "session.finalize",
    "graph.build_s": "graph", "graph.instantiate_s": "graph",
    "engine.makespan_s": "engine.origin", "engine.busy_s": "engine.origin",
    "engine.parallelism": "engine.origin",
    "engine.idle_s": "engine.idle", "engine.gap_s": "engine.idle",
    "engine.dispatch_us": "engine.idle",
}

#: Traced rounds each traced run makes at least, besides its cold round.
MIN_TRACED = 3


def _traced_round(tracer, session, problems, idx, checker):
    """One round under the probes; returns (ledger, results, spans)."""
    first = len(tracer.spans)
    tracer.install()
    try:
        with tracer.span("round") as rnd:
            outcomes, _ = solve_round(session, problems, idx, full=True,
                                      tracer=tracer)
    finally:
        tracer.uninstall()
    ok = check_round(checker, idx, outcomes)
    spans = tracer.spans[first:]
    results = [o for o in outcomes if not isinstance(o, BaseException)]
    ledger = tracing.round_ledger(tracer, spans, results, rnd.start, rnd.end)
    ledger["root_deflation"] = statistics.mean(
        r.total_deflation for r in results) if results else None
    ledger["fallbacks"] = sum(s.fallback for r in results
                              for s in r.info.ctx.merge_stats)
    ledger["ok"] = ok
    return ledger, results, spans


def traced_run(w: Workload, seed: int, seconds: float,
               out_dir: Path) -> dict:
    problems, gen_s = inputs.problems(w.mtype, w.n, problem_seeds(w, seed))
    plan = round_plan(w, seed)
    checker = Checker(problems, w.jobz)
    tracer = tracing.Tracer()
    tracer.install_pool_factory()
    if graph_template_cache is not None:
        graph_template_cache.clear()
    session = make_session(w)
    export_spans, export_results = [], []
    warm, untraced = [], []
    try:
        cold, results, spans = _traced_round(tracer, session, problems,
                                             next(plan), checker)
        export_spans += spans
        export_results += results
        t_end = time.perf_counter() + seconds
        while len(warm) < MIN_TRACED or time.perf_counter() < t_end:
            idx = next(plan)
            outcomes, wall = solve_round(session, problems, idx, full=True)
            if check_round(checker, idx, outcomes):
                untraced.append(wall)
            ledger, results, spans = _traced_round(
                tracer, session, problems, next(plan), checker)
            warm.append(ledger)
            if len(warm) <= MIN_TRACED:
                export_spans += spans
                export_results += results
        stats = session.stats()
    finally:
        session.close()
        tracer.close()
    noop, noop_reason = tracing.noop_dispatch_us(*problems[0], w.jobz,
                                                  N_WORKERS)

    def med(f):
        vals = [f(r) for r in warm]
        vals = [v for v in vals if v is not None]
        return statistics.median(vals) if vals else None

    def eng(key):
        return med(lambda r: r["engine"][key] if r["engine"] else None)

    def layer(name):
        return med(lambda r: r["layers"][name])

    traced_walls = [r["wall_s"] for r in warm if r["ok"]]
    ws = stats.get("workspace", {})
    cache = stats.get("graph_cache", {})
    values = {
        "python.gc_s": (layer("gc"), "s"),
        "session.validate_s": (layer("validate"), "s"),
        "session.context_s": (layer("context"), "s"),
        "session.submit_s": (layer("submit"), "s"),
        "session.finalize_s": (layer("finalize"), "s"),
        "session.workspace_hit_rate": (ws.get("hit_rate"), "share"),
        "session.workspace_high_water_mb":
            (ws["high_water_bytes"] / 2 ** 20 if ws else None, "MB"),
        # The cold round misses the template cache; warm rounds hit it.
        "graph.build_s": (cold["layers"]["instantiate"], "s"),
        "graph.instantiate_s": (layer("instantiate"), "s"),
        "graph.n_tasks": (med(lambda r: r["n_tasks"]), "count"),
        "graph.cache_hit_rate": (cache.get("hit_rate"), "share"),
        "engine.makespan_s": (eng("makespan_s"), "s"),
        "engine.busy_s": (eng("busy_s"), "s"),
        "engine.idle_s": (eng("idle_s"), "s"),
        "engine.gap_s": (eng("gap_s"), "s"),
        "engine.dispatch_us": (eng("dispatch_us"), "us"),
        "engine.parallelism": (eng("parallelism"), "ratio"),
        "engine.noop_us_per_task.w1": (noop["w1"], "us"),
        "engine.noop_us_per_task.w2": (noop["w2"], "us"),
    }
    for c in tracing.KERNEL_CLASSES:
        values[f"kernel.{c}.s"] = (med(lambda r: r["kernels"][c]["s"]), "s")
        values[f"kernel.{c}.tasks"] = (
            med(lambda r: r["kernels"][c]["tasks"]), "count")
    closure = max(r["unattributed_share"] for r in [cold, *warm])
    values.update({
        "numerics.deflation_ratio": (med(lambda r: r["root_deflation"]),
                                     "share"),
        "numerics.fallbacks": (cold["fallbacks"]
                               + sum(r["fallbacks"] for r in warm), "count"),
        "numerics.eig_err_ulps": (checker.eig_err_ulps, "ulp"),
        "ledger.wall_s": (med(lambda r: r["wall_s"]), "s"),
        "ledger.unattributed_s": (layer("unattributed"), "s"),
        "ledger.closure": (closure, "share"),
        "trace.overhead": (statistics.median(traced_walls)
                           / statistics.median(untraced) - 1.0
                           if traced_walls and untraced else None, "ratio"),
    })
    reasons = dict(tracer.missing)
    if noop_reason:
        reasons["engine.noop"] = noop_reason
    metrics = {}
    for name, (value, unit) in values.items():
        reason = tracer.missing.get(_PROBE_OF.get(name)) or (
            noop_reason if name.startswith("engine.noop") else None)
        metrics[name] = _metric(None if reason else value, unit, reason)

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace_{w.name}.json"
    tracing.write_chrome_trace(trace_path, tracer, export_spans,
                               export_results)
    context = {
        "traced_rounds": len(warm), "untraced_rounds": len(untraced),
        "solves_per_round": w.batch,
        "closure_limit": tracing.CLOSURE_LIMIT,
        "closure_ok": closure <= tracing.CLOSURE_LIMIT,
        "round_layers": [r["layers"] for r in [cold, *warm]],
        "missing_probes": reasons,
        "trace_file": str(trace_path),
        "input_gen_s": gen_s,
        **host_context(),
    }
    return _result(checker, metrics, context)


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        smoke: bool) -> dict:
    w = WORKLOADS[name]
    if smoke:
        w = smoke_variant(w)
    if trace:
        return traced_run(w, seed, 0.0 if smoke else seconds, out_dir)
    return timing_run(w, seed, 0.0 if smoke else seconds,
                      min_rounds=3 if smoke else 5)
