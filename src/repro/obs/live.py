"""Always-on service observability: streaming digests, post-mortem
bundles, and the live ``/metrics`` endpoint.

:func:`~repro.obs.metrics.solve_metrics` reads one finished solve.  A
long-lived :class:`~repro.core.session.SolverSession` needs the
complement — state that is always on, bounded, and inspectable while the
service runs.  All of it is derived, once per solve, from the run's
event log: the :class:`~repro.runtime.trace.Trace` every substrate
already records (a failed run's partial trace rides on its error as
``.trace``), and the solve's per-merge stats.

:func:`write_postmortem`
    When a solve fails (or degrades to the STEQR fallback), the session
    dumps that solve's own trace — plus its options, fault spec and
    pool/workspace stats — as a JSONL *post-mortem bundle*.

:class:`Digest`
    A constant-memory quantile sketch (merging t-digest, pure stdlib)
    replacing retain-all percentile lists: ``add`` buffers values and
    periodically compresses them into at most ~``delta`` centroids, so
    p50/p90/p99 of millions of latency samples cost a few KiB.  Digests
    merge exactly by centroid concatenation + recompression, which is
    how per-session metrics aggregate across sessions.

:class:`SessionMetrics`
    The per-session digest set (per-solve latency, deflation ratio,
    mean secular iterations per root), monotonic service counters (solves,
    failures, fallbacks), exact per-kernel time and task totals folded
    from each solve's trace, and the last-solve clock.

:class:`MetricsServer`
    A stdlib ``http.server`` thread serving ``/metrics`` (Prometheus
    text), ``/healthz`` (pool liveness), ``/debug/state`` (JSON
    snapshot) and a debug ``/solve`` trigger, started with
    ``SolverSession(serve_port=...)`` or ``repro-eig serve``.

Everything here preserves the bitwise-identity contract: none of it
touches solver numerics, and none of it runs per task.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import json
import math
import os
import threading
import time
from dataclasses import fields as dataclass_fields
from typing import Iterable, Optional

__all__ = ["Digest", "SessionMetrics", "MetricsServer", "write_postmortem",
           "live_metrics_text", "healthz_payload", "debug_state"]


# ---------------------------------------------------------------------------
# Streaming quantile digest
# ---------------------------------------------------------------------------


class Digest:
    """Constant-memory quantile sketch (merging t-digest).

    Values are buffered and periodically *compressed* into weighted
    centroids whose capacity follows the t-digest ``k1`` scale function
    ``k(q) = delta/(2*pi) * asin(2q - 1)`` — tight (weight ~1) at the
    distribution tails, wide in the middle.  This bounds memory at
    roughly ``delta/2 + buffer_size`` floats while keeping tail
    quantiles (p99) accurate to well under 1% relative error on smooth
    latency-like streams (the documented bound is on *rank* error:
    at most ~``2/delta`` of the total weight per centroid near the
    median, shrinking to single samples at the extremes; value-space
    error at a density cliff between modes can be larger).

    ``count``/``sum``/``min``/``max`` (hence ``mean``) are exact.
    Two digests merge exactly by feeding one's centroids into the
    other's buffer and recompressing (:meth:`merge`).

    Not thread-safe: callers synchronize externally (session metrics
    hold their own lock).
    """

    __slots__ = ("delta", "buffer_size", "_buf", "_means", "_weights",
                 "count", "sum", "min", "max")

    def __init__(self, delta: float = 200.0, buffer_size: int = 512):
        self.delta = float(delta)
        self.buffer_size = int(buffer_size)
        self._buf: list[tuple[float, float]] = []
        self._means: list[float] = []
        self._weights: list[float] = []
        self.count = 0.0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float, w: float = 1.0) -> None:
        x = float(x)
        self._buf.append((x, w))
        self.count += w
        self.sum += x * w
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if len(self._buf) >= self.buffer_size:
            self._compress()

    def add_many(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    @property
    def n_centroids(self) -> int:
        return len(self._means) + len(self._buf)

    def _qlim_right(self, q0: float) -> float:
        """Right edge (in quantile space) of the centroid starting at
        ``q0``: one unit of the k1 scale function."""
        q0 = min(max(q0, 0.0), 1.0)
        k = self.delta / (2.0 * math.pi) * math.asin(2.0 * q0 - 1.0)
        arg = (k + 1.0) * 2.0 * math.pi / self.delta
        if arg >= math.pi / 2.0:
            return 1.0
        return (math.sin(arg) + 1.0) / 2.0

    def _compress(self) -> None:
        if not self._buf:
            return
        pairs = sorted(itertools.chain(zip(self._means, self._weights),
                                       self._buf))
        total = sum(w for _, w in pairs)
        means: list[float] = []
        weights: list[float] = []
        cur_m, cur_w = pairs[0]
        q0 = 0.0
        qlim = self._qlim_right(0.0)
        for m, w in pairs[1:]:
            if q0 + (cur_w + w) / total <= qlim:
                cur_w += w
                cur_m += (m - cur_m) * (w / cur_w)
            else:
                means.append(cur_m)
                weights.append(cur_w)
                q0 += cur_w / total
                qlim = self._qlim_right(q0)
                cur_m, cur_w = m, w
        means.append(cur_m)
        weights.append(cur_w)
        self._means, self._weights = means, weights
        self._buf = []

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` (NaN while empty)."""
        self._compress()
        means = self._means
        if not means:
            return math.nan
        if len(means) == 1:
            return means[0]
        t = min(max(q, 0.0), 1.0) * self.count
        mids: list[float] = []
        c = 0.0
        for w in self._weights:
            mids.append(c + w / 2.0)
            c += w
        if t <= mids[0]:
            f = t / mids[0] if mids[0] else 1.0
            return self.min + f * (means[0] - self.min)
        if t >= mids[-1]:
            span = self.count - mids[-1]
            f = (t - mids[-1]) / span if span else 1.0
            return means[-1] + f * (self.max - means[-1])
        i = bisect.bisect_left(mids, t)
        f = (t - mids[i - 1]) / (mids[i] - mids[i - 1])
        return means[i - 1] + f * (means[i] - means[i - 1])

    def merge(self, other: "Digest") -> "Digest":
        """Fold ``other`` into this digest (exact centroid merge)."""
        other._compress()
        self._buf.extend(zip(other._means, other._weights))
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._compress()
        return self

    @classmethod
    def merged(cls, digests: Iterable["Digest"]) -> "Digest":
        out = cls()
        for d in digests:
            out.merge(d)
        return out

    def stats(self) -> Optional[dict]:
        """Summary in the shape of ``SolveMetrics.hist_stats`` (None
        while empty)."""
        if not self.count:
            return None
        return {"count": int(self.count), "min": self.min, "max": self.max,
                "mean": self.mean, "p50": self.quantile(0.50),
                "p90": self.quantile(0.90), "p99": self.quantile(0.99),
                "sum": self.sum}


# ---------------------------------------------------------------------------
# Session metrics (streaming digests + service counters)
# ---------------------------------------------------------------------------


class SessionMetrics:
    """Per-session streaming metrics: digests + monotonic counters.

    Fed by the session off the hot path (once per completed solve, from
    the already-computed per-merge stats and the solve's trace), so it
    is always on.  Digest semantics:

    ``latency_s``
        Submit → completion wall seconds, one sample per solve.
    ``deflation_ratio``
        One sample per merge node (``1 - k/n``).
    ``secular_iterations``
        Mean LAED4 iterations per secular root of one merge (from the
        per-root counts in ``MergeStats.secular_iterations``), one
        sample per merge that solved a secular root.

    ``kernel_seconds`` / ``kernel_tasks`` are exact per-kernel busy
    seconds and completed-task counts folded from each solve's trace
    in one pass (``Trace.kernel_totals``); a failed solve
    contributes the tasks that completed before it was cancelled.  On
    the simulated backend the seconds are virtual.

    :meth:`merge` aggregates across sessions (digests merge exactly).
    """

    DIGESTS = ("latency_s", "deflation_ratio", "secular_iterations")
    COUNTERS = ("solves", "failures", "fallbacks", "tasks")
    #: Name-keyed counter tables (solves by compute mode, per kernel).
    TABLES = ("solves_by_jobz", "kernel_seconds", "kernel_tasks")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latency_s = Digest()
        self.deflation_ratio = Digest()
        self.secular_iterations = Digest()
        self.solves = 0
        self.failures = 0
        self.fallbacks = 0
        self.tasks = 0
        #: Solve counts split by compute mode ("V" / "N").
        self.solves_by_jobz: dict[str, int] = {}
        self.kernel_seconds: dict[str, float] = {}
        self.kernel_tasks: dict[str, int] = {}
        self.last_done_wall: Optional[float] = None
        self._last_done_mono: Optional[float] = None

    def note_solve(self, latency_s: Optional[float], merge_stats=(),
                   failed: bool = False, n_tasks: int = 0,
                   jobz: Optional[str] = None, trace=None) -> None:
        """Record one completed solve (success or failure)."""
        kernel_s, kernel_n = ({}, {}) if trace is None else trace.kernel_totals()
        with self._lock:
            self.solves += 1
            self.tasks += n_tasks
            if jobz is not None:
                _fold(self.solves_by_jobz, {jobz: 1})
            if failed:
                self.failures += 1
            if latency_s is not None:
                self.latency_s.add(latency_s)
            for s in merge_stats:
                self.deflation_ratio.add(s.deflation_ratio)
                if s.secular_iterations:
                    self.secular_iterations.add(
                        sum(s.secular_iterations)
                        / len(s.secular_iterations))
                if s.fallback:
                    self.fallbacks += 1
            _fold(self.kernel_seconds, kernel_s)
            _fold(self.kernel_tasks, kernel_n)
            self.last_done_wall = time.time()
            self._last_done_mono = time.perf_counter()

    def last_solve_age_s(self) -> Optional[float]:
        if self._last_done_mono is None:
            return None
        return time.perf_counter() - self._last_done_mono

    def digest_stats(self) -> dict:
        """Name → stats dict for every non-empty digest."""
        with self._lock:
            return {name: st for name in self.DIGESTS
                    if (st := getattr(self, name).stats()) is not None}

    def kernel_stats(self) -> dict:
        """Kernel name → ``{"seconds", "tasks"}`` totals over all solves."""
        with self._lock:
            return {name: {"seconds": self.kernel_seconds.get(name, 0.0),
                           "tasks": cnt}
                    for name, cnt in sorted(self.kernel_tasks.items())}

    def to_dict(self) -> dict:
        out = {"solves": self.solves, "failures": self.failures,
               "fallbacks": self.fallbacks, "tasks": self.tasks,
               "solves_by_jobz": dict(self.solves_by_jobz),
               "last_solve_age_s": self.last_solve_age_s()}
        out["digests"] = self.digest_stats()
        return out

    def merge(self, other: "SessionMetrics") -> "SessionMetrics":
        """Fold another session's metrics into this one.

        ``other`` is copied under its own lock, then folded in under
        this one's: the two locks are never held together, so
        ``m.merge(m)`` doubles ``m`` and two sessions merging into each
        other concurrently cannot deadlock.
        """
        with other._lock:
            digests = [copy.deepcopy(getattr(other, name))
                       for name in self.DIGESTS]
            counts = [getattr(other, name) for name in self.COUNTERS]
            tables = [dict(getattr(other, name)) for name in self.TABLES]
            last = (other.last_done_wall, other._last_done_mono)
        with self._lock:
            for name, digest in zip(self.DIGESTS, digests):
                getattr(self, name).merge(digest)
            for name, cnt in zip(self.COUNTERS, counts):
                setattr(self, name, getattr(self, name) + cnt)
            for name, table in zip(self.TABLES, tables):
                _fold(getattr(self, name), table)
            for attr, theirs in zip(("last_done_wall", "_last_done_mono"),
                                    last):
                mine = getattr(self, attr)
                if theirs is not None and (mine is None or theirs > mine):
                    setattr(self, attr, theirs)
        return self

    @classmethod
    def merged(cls, metrics: Iterable["SessionMetrics"]) -> "SessionMetrics":
        out = cls()
        for m in metrics:
            out.merge(m)
        return out


def _fold(into: dict, counts: dict) -> None:
    """Add a name-keyed counter table into another, in place."""
    for name, value in counts.items():
        into[name] = into.get(name, 0) + value


# ---------------------------------------------------------------------------
# Post-mortem bundles
# ---------------------------------------------------------------------------

_POSTMORTEM_SEQ = itertools.count()

#: Environment fallback for ``DCOptions.postmortem_dir`` — lets an
#: operator (or CI) turn on crash bundles without touching call sites.
POSTMORTEM_ENV = "REPRO_POSTMORTEM_DIR"


def _options_dict(options) -> Optional[dict]:
    if options is None:
        return None
    out = {}
    for f in dataclass_fields(options):
        v = getattr(options, f.name)
        if f.name == "fault_injection" and v is not None:
            v = {"task_seq": v.task_seq, "kernel": v.kernel, "nth": v.nth,
                 "probability": v.probability, "seed": v.seed}
        out[f.name] = v
    return out


def _event_lines(trace, error: Optional[BaseException]) -> list[dict]:
    """A solve's event log as bundle lines: one ``task`` line per
    completed task of ``trace`` in timeline order, then a ``task.fail``
    line naming the task a :class:`~repro.errors.TaskFailure` blames."""
    from ..errors import TaskFailure

    out: list[dict] = []
    if trace is not None:
        for e in sorted(trace.events,
                        key=lambda e: (e.t_start, e.t_end, e.seq)):
            ev = {"kind": "task", "name": e.name, "worker": e.worker,
                  "task_seq": e.seq, "t0": e.t_start, "t1": e.t_end}
            if e.tag is not None:
                ev["detail"] = str(e.tag)
            out.append(ev)
    if isinstance(error, TaskFailure):
        cause = error.__cause__ if error.__cause__ is not None else error
        ev = {"kind": "task.fail", "name": error.task_name,
              "task_seq": error.seq,
              "detail": f"{type(cause).__name__}: {cause}"}
        if error.worker is not None:
            ev["worker"] = error.worker
        out.append(ev)
    return out


def write_postmortem(directory: str, *, reason: str,
                     error: Optional[BaseException] = None,
                     options=None, trace=None,
                     session_stats: Optional[dict] = None,
                     metrics: Optional[SessionMetrics] = None,
                     max_events: int = 4096) -> str:
    """Dump a post-mortem bundle as JSONL; returns the path written.

    Line 1 is the ``postmortem`` header (``version: 3``): the failure
    reason and typed error (with task name/seq/tag/worker for a
    :class:`~repro.errors.TaskFailure` and the chained cause), the
    solve's options and fault-injector spec, and the session's
    pool/workspace/cache stats and digests.  The remaining lines replay
    the failing solve's own event log — its ``trace`` (the partial trace
    of a failed run) plus the ``task.fail`` line — keeping the last
    ``max_events``.
    """
    from ..errors import TaskFailure

    os.makedirs(directory, exist_ok=True)
    head: dict = {"type": "postmortem", "version": 3, "reason": reason,
                  "time_unix": time.time(), "pid": os.getpid()}
    if error is not None:
        head["error"] = {"type": type(error).__name__, "message": str(error)}
        if isinstance(error, TaskFailure):
            head["error"]["task"] = {
                "name": error.task_name, "seq": error.seq,
                "tag": None if error.tag is None else str(error.tag),
                "worker": error.worker,
            }
        if error.__cause__ is not None:
            head["error"]["cause"] = {
                "type": type(error.__cause__).__name__,
                "message": str(error.__cause__),
            }
    head["options"] = _options_dict(options)
    if session_stats is not None:
        head["session"] = session_stats
    if metrics is not None:
        head["metrics"] = metrics.to_dict()
    events = _event_lines(trace, error)[-max_events:]
    head["n_events"] = len(events)

    fname = (f"postmortem-{int(time.time())}-{os.getpid()}"
             f"-{next(_POSTMORTEM_SEQ)}.jsonl")
    path = os.path.join(directory, fname)
    with open(path, "w") as fh:
        fh.write(json.dumps(head, sort_keys=True, default=str) + "\n")
        for ev in events:
            fh.write(json.dumps({"type": "event", **ev}, sort_keys=True)
                     + "\n")
    return path


def resolve_postmortem_dir(options) -> Optional[str]:
    """Effective bundle directory: the option, else the environment."""
    d = getattr(options, "postmortem_dir", None)
    return d if d else os.environ.get(POSTMORTEM_ENV) or None


# ---------------------------------------------------------------------------
# Live metrics endpoint
# ---------------------------------------------------------------------------


def _emit_summary(lines: list[str], pn: str, st: dict) -> None:
    from .export import prom_name
    pn = prom_name(pn)
    lines.append(f"# TYPE {pn} summary")
    for q in ("0.5", "0.9", "0.99"):
        key = "p" + str(int(float(q) * 100))
        lines.append(f'{pn}{{quantile="{q}"}} {st[key]:.17g}')
    lines.append(f"{pn}_count {st['count']}")
    lines.append(f"{pn}_sum {st['sum']:.17g}")


def live_metrics_text(session) -> str:
    """Prometheus text-format snapshot of a live session.

    Service counters and gauges come from the always-on session state
    (metrics digests, per-kernel totals folded from every solve's trace,
    pool/workspace/cache stats).
    """
    from .export import prom_label_value, prom_name

    lines: list[str] = []

    def emit(name: str, value, mtype: str = "gauge") -> None:
        if value is None:
            return
        pn = prom_name(name)
        lines.append(f"# TYPE {pn} {mtype}")
        lines.append(f"{pn} {float(value):.17g}")

    def emit_table(name: str, label: str, values: dict) -> None:
        """One counter family with a sample per ``label`` value."""
        if not values:
            return
        pn = prom_name(name)
        lines.append(f"# TYPE {pn} counter")
        for key, value in sorted(values.items()):
            lines.append(f'{pn}{{{label}="{prom_label_value(key)}"}} '
                         f"{float(value):.17g}")

    m = session.metrics
    emit("session.solves_total", m.solves, "counter")
    emit("session.failures_total", m.failures, "counter")
    emit("session.fallbacks_total", m.fallbacks, "counter")
    emit("session.tasks_total", m.tasks, "counter")
    emit_table("session.solves_by_jobz_total", "jobz",
               dict(m.solves_by_jobz))
    kernels = m.kernel_stats()
    emit_table("session.kernel_seconds_total", "kernel",
               {k: v["seconds"] for k, v in kernels.items()})
    emit_table("session.kernel_tasks_total", "kernel",
               {k: v["tasks"] for k, v in kernels.items()})
    emit("session.inflight", len(session._outstanding))
    emit("session.workers", session.n_workers)
    emit("session.last_solve_age_seconds", m.last_solve_age_s())
    for name, st in sorted(m.digest_stats().items()):
        _emit_summary(lines, f"session.{name}", st)

    stats = session.stats()
    for group in ("graph_cache", "workspace"):
        gstats = stats.get(group)
        if not gstats:
            continue
        for key, value in sorted(gstats.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            kind = "counter" if key in ("hits", "misses", "evictions") \
                else "gauge"
            suffix = "_total" if kind == "counter" else ""
            emit(f"{group}.{key}{suffix}", value, kind)
    pool = getattr(session, "_pool", None)
    if pool is not None:
        emit("pool.runs_completed_total", pool.runs_completed, "counter")
        emit("pool.workers_alive", pool.workers_alive)
        emit("pool.workers_parked", pool.parked)
        emit("pool.inflight_runs", len(pool._active))
    return "\n".join(lines) + "\n"


def healthz_payload(session) -> tuple[int, dict]:
    """(HTTP status, JSON payload) of the liveness probe."""
    m = session.metrics
    pool = getattr(session, "_pool", None)
    payload = {
        "status": "ok",
        "backend": session.backend,
        "workers": session.n_workers,
        "inflight": len(session._outstanding),
        "solves": m.solves,
        "failures": m.failures,
        "last_solve_age_s": m.last_solve_age_s(),
    }
    status = 200
    if session._closed:
        payload["status"] = "closed"
        status = 503
    if pool is not None:
        alive = pool.workers_alive
        payload["pool"] = {"workers_alive": alive,
                           "workers_parked": pool.parked,
                           "inflight_runs": len(pool._active),
                           "runs_completed": pool.runs_completed}
        if not pool.closed and alive < pool.n_workers:
            payload["status"] = "degraded"
            status = 503
    return status, payload


def debug_state(session) -> dict:
    """JSON snapshot for ``/debug/state``: digests, stats, kernel totals."""
    return {"backend": session.backend, "n_workers": session.n_workers,
            "closed": session._closed,
            "metrics": session.metrics.to_dict(),
            "kernels": session.metrics.kernel_stats(),
            "stats": session.stats()}


class MetricsServer:
    """Background ``http.server`` thread exposing a live session.

    Endpoints (all GET):

    * ``/metrics`` — Prometheus text format (:func:`live_metrics_text`);
    * ``/healthz`` — JSON liveness: 200 while the pool's workers are
      alive, 503 once the session is closed or workers died;
    * ``/debug/state`` — JSON snapshot of digests, per-kernel totals
      and cache/workspace-pool stats;
    * ``/solve?n=N&type=T&seed=S`` — debug trigger: solve one Table III
      matrix on the session and return the latency (bounds the size to
      keep the probe harmless).

    Binds ``127.0.0.1`` by default; pass ``port=0`` for an ephemeral
    port (read it back from :attr:`port`).
    """

    MAX_SOLVE_N = 5000

    def __init__(self, session, port: int = 0, host: str = "127.0.0.1"):
        import http.server

        srv_self = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):   # quiet: a probe per
                pass                             # scrape would spam stderr

            def do_GET(self):
                try:
                    status, ctype, body = srv_self._route(self.path)
                except Exception as exc:   # never kill the server thread
                    status, ctype = 500, "application/json"
                    body = json.dumps({"error": str(exc)})
                data = body.encode()
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        self.session = session
        self.httpd = http.server.ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="repro-metrics",
                                        daemon=True)
        self._thread.start()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _route(self, path: str) -> tuple[int, str, str]:
        from urllib.parse import parse_qs, urlparse

        url = urlparse(path)
        if url.path == "/metrics":
            return 200, "text/plain; version=0.0.4", \
                live_metrics_text(self.session)
        if url.path == "/healthz":
            status, payload = healthz_payload(self.session)
            return status, "application/json", json.dumps(payload)
        if url.path == "/debug/state":
            return 200, "application/json", \
                json.dumps(debug_state(self.session), default=str)
        if url.path == "/solve":
            return self._solve(parse_qs(url.query))
        return 404, "application/json", json.dumps(
            {"error": f"unknown path {url.path!r}",
             "endpoints": ["/metrics", "/healthz", "/debug/state",
                           "/solve"]})

    def _solve(self, q: dict) -> tuple[int, str, str]:
        from ..errors import ReproError
        from ..matrices import test_matrix

        try:
            n = min(int(q.get("n", ["300"])[0]), self.MAX_SOLVE_N)
            mtype = int(q.get("type", ["4"])[0])
            seed = int(q.get("seed", ["0"])[0])
            jobz = q.get("jobz", ["V"])[0].upper()
            if jobz not in ("V", "N"):
                raise ValueError(f"jobz must be 'V' or 'N', got {jobz!r}")
            d, e = test_matrix(mtype, n, seed=seed)
        except (ValueError, KeyError) as exc:
            return 400, "application/json", json.dumps({"error": str(exc)})
        opts = self.session.options.with_(jobz=jobz)
        t0 = time.perf_counter()
        try:
            lam, V = self.session.solve(d, e, options=opts)
        except ReproError as exc:
            return 400, "application/json", json.dumps(
                {"error": f"{type(exc).__name__}: {exc}"})
        dt = time.perf_counter() - t0
        return 200, "application/json", json.dumps(
            {"n": n, "type": mtype, "seed": seed, "jobz": jobz,
             "latency_s": dt,
             "lam_min": float(lam[0]), "lam_max": float(lam[-1])})

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=5.0)
