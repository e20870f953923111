"""Always-on service observability: flight recorder, streaming digests,
post-mortem bundles, and the live ``/metrics`` endpoint.

The :mod:`repro.obs.recorder` Collector is an *attach-then-dump* tool: a
caller opts in per solve and reads the data afterwards.  A long-lived
:class:`~repro.core.session.SolverSession` needs the complement — state
that is always on, bounded, and inspectable while the service runs:

:class:`FlightRecorder`
    A fixed-size, lock-striped ring buffer of recent runtime events
    (task completions, failures, span closes, session lifecycle).  The
    hot-path cost is one striped-lock acquire plus a bounded-deque
    append per event; memory is capped by construction.  When a solve
    fails (or degrades to the STEQR fallback), the session dumps the
    ring — plus the solve's options, fault spec and pool/workspace
    stats — as a JSONL *post-mortem bundle* via
    :func:`write_postmortem`.

:class:`Digest`
    A constant-memory quantile sketch (merging t-digest, pure stdlib)
    replacing retain-all percentile lists: ``add`` buffers values and
    periodically compresses them into at most ~``delta`` centroids, so
    p50/p90/p99 of millions of latency samples cost a few KiB.  Digests
    merge exactly by centroid concatenation + recompression, which is
    how per-session metrics aggregate across sessions.

:class:`SessionMetrics`
    The per-session digest set (per-solve latency, deflation ratio,
    secular iterations per root, queue depth) plus monotonic service
    counters (solves, failures, fallbacks) and the last-solve clock.

:class:`MetricsServer`
    A stdlib ``http.server`` thread serving ``/metrics`` (Prometheus
    text), ``/healthz`` (pool liveness), ``/debug/state`` (JSON
    snapshot) and a debug ``/solve`` trigger, started with
    ``SolverSession(serve_port=...)`` or ``repro-eig serve``.

Everything here preserves the bitwise-identity contract: none of it
touches solver numerics, and everything beyond the flight recorder's
bounded append is opt-in.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import os
import threading
import time
from collections import deque
from dataclasses import fields as dataclass_fields
from typing import Iterable, Optional

__all__ = ["Digest", "FlightRecorder", "FlightEvent", "SessionMetrics",
           "MetricsServer", "write_postmortem", "live_metrics_text",
           "healthz_payload", "debug_state"]


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

    Not thread-safe: callers synchronize externally (the collector and
    session metrics hold their own locks).
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
        """hist_stats-compatible summary (None while empty)."""
        if not self.count:
            return None
        return {"count": int(self.count), "min": self.min, "max": self.max,
                "mean": self.mean, "p50": self.quantile(0.50),
                "p90": self.quantile(0.90), "p99": self.quantile(0.99),
                "sum": self.sum}


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

#: Field order of one flight-recorder entry (kept as a plain tuple on the
#: hot path; expanded into dicts only at snapshot/dump time).
FlightEvent = tuple  # (seq, kind, name, worker, task_seq, t0, t1, detail)


class FlightRecorder:
    """Fixed-size, lock-striped ring buffer of recent runtime events.

    Always on: every :class:`~repro.core.session.SolverSession` owns one
    by default, and the schedulers append one entry per executed task
    (plus failures and lifecycle events).  The append path is a global
    sequence-counter bump (GIL-atomic), one striped-lock acquire chosen
    by ``seq % n_stripes`` (round-robin: concurrent recorders almost
    always hit different stripes, and the per-stripe rings age out
    uniformly so retention stays close to the full capacity), and a
    ``deque(maxlen=...)`` append — bounded memory and O(1) time, cheap
    enough for the default solve path.

    Timestamps are raw ``perf_counter`` values; :meth:`snapshot`
    re-bases them onto the recorder's epoch so dumps are human-scaled.

    Because the per-stripe rings evict independently, a raw union of the
    stripes after wraparound would contain interleaved holes (stripe
    ``i`` only ever holds sequence numbers ``≡ i (mod n_stripes)``, and
    each drops its own oldest).  :meth:`snapshot` therefore trims the
    sorted replay to the contiguous suffix: everything at or above the
    newest per-stripe eviction horizon.  :meth:`occupancy` reports how
    much was dropped by eviction and how much the trim removed.
    """

    def __init__(self, capacity: int = 4096, n_stripes: int = 8):
        n_stripes = max(1, min(n_stripes, capacity))
        per = max(1, capacity // n_stripes)
        self.capacity = per * n_stripes
        self._per_stripe = per
        self._stripes = [(threading.Lock(), deque(maxlen=per))
                         for _ in range(n_stripes)]
        self._n_stripes = n_stripes
        self._seq_lock = threading.Lock()
        self._next_seq = 0
        self.t0_abs = time.perf_counter()
        self.t0_wall = time.time()

    def _bump(self) -> int:
        with self._seq_lock:
            seq = self._next_seq
            self._next_seq += 1
        return seq

    # -- recording (hot path) -------------------------------------------
    def record(self, kind: str, name: str, worker: int = -1,
               task_seq: int = -1, t0: float = 0.0, t1: float = 0.0,
               detail: str = "") -> None:
        seq = self._bump()
        lock, ring = self._stripes[seq % self._n_stripes]
        with lock:
            ring.append((seq, kind, name, worker, task_seq, t0, t1, detail))

    def record_task(self, task, worker: int, t0: float, t1: float) -> None:
        """One executed task (absolute perf_counter start/end)."""
        seq = self._bump()
        lock, ring = self._stripes[seq % self._n_stripes]
        with lock:
            ring.append((seq, "task", task.name, worker, task.seq, t0, t1,
                         "" if task.tag is None else str(task.tag)))

    # -- reading ---------------------------------------------------------
    def _horizon(self, raw: list[FlightEvent]) -> int:
        """First sequence number of the contiguous replay suffix.

        A stripe that has evicted proves every older member of its
        residue class is gone; the newest such eviction bounds the
        window in which *other* stripes may still hold stale survivors.
        Treating a merely-full stripe as evicting is harmless: its
        horizon lies at or below the true global minimum.
        """
        start = 0
        per, n = self._per_stripe, self._n_stripes
        oldest: dict[int, int] = {}
        counts: dict[int, int] = {}
        for seq, *_ in raw:
            s = seq % n
            counts[s] = counts.get(s, 0) + 1
            if s not in oldest or seq < oldest[s]:
                oldest[s] = seq
        for s, cnt in counts.items():
            if cnt >= per:
                start = max(start, oldest[s] - n + 1)
        return start

    def snapshot(self, last: Optional[int] = None) -> list[dict]:
        """The retained events, oldest first, as JSON-ready dicts.

        Only the contiguous suffix is replayed: events older than the
        newest per-stripe eviction horizon are trimmed so the replay
        never mixes pre- and post-wraparound epochs.
        """
        raw: list[FlightEvent] = []
        for lock, ring in self._stripes:
            with lock:
                raw.extend(ring)
        raw.sort()
        start = self._horizon(raw)
        if start:
            raw = [ev for ev in raw if ev[0] >= start]
        if last is not None:
            raw = raw[-last:]
        t0 = self.t0_abs
        out = []
        for seq, kind, name, worker, task_seq, a, b, detail in raw:
            ev = {"seq": seq, "kind": kind, "name": name}
            if worker >= 0:
                ev["worker"] = worker
            if task_seq >= 0:
                ev["task_seq"] = task_seq
            if a or b:
                ev["t0"] = a - t0
                ev["t1"] = b - t0
            if detail:
                ev["detail"] = detail
            out.append(ev)
        return out

    def occupancy(self) -> dict:
        """Ring occupancy: capacity, retained, replayable, drop counts.

        ``recorded`` is the exact event count (explicit locked counter);
        ``dropped`` is what the rings evicted, ``trimmed`` what the
        contiguity horizon removes on top, and ``replayable`` what
        :meth:`snapshot` actually returns.
        """
        raw: list[FlightEvent] = []
        for lock, ring in self._stripes:
            with lock:
                raw.extend(ring)
        size = len(raw)
        start = self._horizon(raw)
        replayable = sum(1 for ev in raw if ev[0] >= start) if start \
            else size
        with self._seq_lock:
            total = self._next_seq
        return {"capacity": self.capacity, "size": size,
                "recorded": total, "dropped": max(0, total - size),
                "trimmed": size - replayable, "replayable": replayable}


# ---------------------------------------------------------------------------
# Session metrics (streaming digests + service counters)
# ---------------------------------------------------------------------------


class SessionMetrics:
    """Per-session streaming metrics: digests + monotonic counters.

    Fed by the session off the hot path (once per completed solve, from
    the already-computed per-merge stats), so it is always on.  Digest
    semantics:

    ``latency_s``
        Submit → completion wall seconds, one sample per solve.
    ``deflation_ratio``
        One sample per merge node (``1 - k/n``).
    ``secular_iterations``
        Mean LAED4 iterations per secular root, one sample per
        non-fully-deflated merge.
    ``queue_depth``
        Ready-queue depth samples (summed over workers), fed by the
        sampling profiler / metrics server when one is attached.

    :meth:`merge` aggregates across sessions (digests merge exactly).
    """

    DIGESTS = ("latency_s", "deflation_ratio", "secular_iterations",
               "queue_depth")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latency_s = Digest()
        self.deflation_ratio = Digest()
        self.secular_iterations = Digest()
        self.queue_depth = Digest()
        self.solves = 0
        self.failures = 0
        self.fallbacks = 0
        self.tasks = 0
        #: Solve counts split by compute mode ("V" / "N").
        self.solves_by_jobz: dict[str, int] = {}
        self.last_done_wall: Optional[float] = None
        self._last_done_mono: Optional[float] = None

    def note_solve(self, latency_s: Optional[float], merge_stats=(),
                   failed: bool = False, n_tasks: int = 0,
                   jobz: Optional[str] = None) -> None:
        """Record one completed solve (success or failure)."""
        with self._lock:
            self.solves += 1
            self.tasks += n_tasks
            if jobz is not None:
                self.solves_by_jobz[jobz] = \
                    self.solves_by_jobz.get(jobz, 0) + 1
            if failed:
                self.failures += 1
            if latency_s is not None:
                self.latency_s.add(latency_s)
            for s in merge_stats:
                self.deflation_ratio.add(s.deflation_ratio)
                if s.k:
                    self.secular_iterations.add(s.secular_sweeps / s.k)
                if s.fallback:
                    self.fallbacks += 1
            self.last_done_wall = time.time()
            self._last_done_mono = time.perf_counter()

    def note_queue_depth(self, depth: float) -> None:
        with self._lock:
            self.queue_depth.add(depth)

    def last_solve_age_s(self) -> Optional[float]:
        if self._last_done_mono is None:
            return None
        return time.perf_counter() - self._last_done_mono

    def digest_stats(self) -> dict:
        """Name → stats dict for every non-empty digest."""
        with self._lock:
            return {name: st for name in self.DIGESTS
                    if (st := getattr(self, name).stats()) is not None}

    def to_dict(self) -> dict:
        out = {"solves": self.solves, "failures": self.failures,
               "fallbacks": self.fallbacks, "tasks": self.tasks,
               "solves_by_jobz": dict(self.solves_by_jobz),
               "last_solve_age_s": self.last_solve_age_s()}
        out["digests"] = self.digest_stats()
        return out

    def merge(self, other: "SessionMetrics") -> "SessionMetrics":
        """Fold another session's metrics into this one."""
        with self._lock, other._lock:
            for name in self.DIGESTS:
                getattr(self, name).merge(getattr(other, name))
            self.solves += other.solves
            self.failures += other.failures
            self.fallbacks += other.fallbacks
            self.tasks += other.tasks
            for mode, cnt in other.solves_by_jobz.items():
                self.solves_by_jobz[mode] = \
                    self.solves_by_jobz.get(mode, 0) + cnt
            for attr in ("last_done_wall", "_last_done_mono"):
                mine, theirs = getattr(self, attr), getattr(other, attr)
                if theirs is not None and (mine is None or theirs > mine):
                    setattr(self, attr, theirs)
        return self

    @classmethod
    def merged(cls, metrics: Iterable["SessionMetrics"]) -> "SessionMetrics":
        out = cls()
        for m in metrics:
            out.merge(m)
        return out


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
        if f.name == "telemetry":
            v = None if v is None else type(v).__name__
        elif f.name == "fault_injection" and v is not None:
            v = {"task_seq": v.task_seq, "kernel": v.kernel, "nth": v.nth,
                 "probability": v.probability, "seed": v.seed}
        out[f.name] = v
    return out


def write_postmortem(directory: str, *, reason: str,
                     error: Optional[BaseException] = None,
                     options=None,
                     flight: Optional[FlightRecorder] = None,
                     session_stats: Optional[dict] = None,
                     metrics: Optional[SessionMetrics] = None,
                     max_events: int = 4096) -> str:
    """Dump a post-mortem bundle as JSONL; returns the path written.

    Line 1 is the ``postmortem`` header: the failure reason and typed
    error (with task name/seq/tag/worker for a
    :class:`~repro.errors.TaskFailure` and the chained cause), the
    solve's options and fault-injector spec, and the session's
    pool/workspace/cache stats and digests.  The remaining lines replay
    the flight recorder's retained events, oldest first.
    """
    from ..errors import TaskFailure

    os.makedirs(directory, exist_ok=True)
    head: dict = {"type": "postmortem", "version": 2, "reason": reason,
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
    events = flight.snapshot(last=max_events) if flight is not None else []
    if flight is not None:
        head["flight"] = flight.occupancy()
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
    (metrics digests, pool/workspace/cache stats, flight-recorder
    occupancy, profiler sample counts); when the session was built with
    a :class:`~repro.obs.recorder.Collector`, its snapshot is appended.
    """
    from .export import prom_label_value, prom_name, prometheus_text
    from .recorder import Collector

    lines: list[str] = []

    def emit(name: str, value, mtype: str = "gauge") -> None:
        if value is None:
            return
        pn = prom_name(name)
        lines.append(f"# TYPE {pn} {mtype}")
        lines.append(f"{pn} {float(value):.17g}")

    m = session.metrics
    emit("session.solves_total", m.solves, "counter")
    emit("session.failures_total", m.failures, "counter")
    emit("session.fallbacks_total", m.fallbacks, "counter")
    emit("session.tasks_total", m.tasks, "counter")
    by_jobz = m.to_dict()["solves_by_jobz"]
    if by_jobz:
        pn = prom_name("session.solves_by_jobz_total")
        lines.append(f"# TYPE {pn} counter")
        for mode, cnt in sorted(by_jobz.items()):
            lines.append(f'{pn}{{jobz="{prom_label_value(mode)}"}} {cnt}')
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
    flight = getattr(session, "flight", None)
    if flight is not None:
        occ = flight.occupancy()
        emit("flight.recorded_total", occ["recorded"], "counter")
        emit("flight.occupancy", occ["size"])
        emit("flight.capacity", occ["capacity"])
    prof = getattr(session, "profiler", None)
    if prof is not None:
        emit("profile.samples_total", prof.n_samples, "counter")
        emit("profile.idle_samples_total", prof.idle_samples, "counter")
        pn = prom_name("profile.kernel_samples_total")
        by_kernel = prof.kernel_counts()
        if by_kernel:
            lines.append(f"# TYPE {pn} counter")
            for kernel, cnt in sorted(by_kernel.items()):
                lines.append(
                    f'{pn}{{kernel="{prom_label_value(kernel)}"}} {cnt}')
    text = "\n".join(lines) + "\n"
    col = session.options.telemetry
    if isinstance(col, Collector):
        text += prometheus_text(col)
    return text


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
    """JSON snapshot for ``/debug/state``: digests, stats, occupancy."""
    out = {"backend": session.backend, "n_workers": session.n_workers,
           "closed": session._closed,
           "metrics": session.metrics.to_dict(),
           "stats": session.stats()}
    flight = getattr(session, "flight", None)
    if flight is not None:
        out["flight"] = flight.occupancy()
    prof = getattr(session, "profiler", None)
    if prof is not None:
        out["profiler"] = prof.summary_dict()
    return out


class MetricsServer:
    """Background ``http.server`` thread exposing a live session.

    Endpoints (all GET):

    * ``/metrics`` — Prometheus text format (:func:`live_metrics_text`);
    * ``/healthz`` — JSON liveness: 200 while the pool's workers are
      alive, 503 once the session is closed or workers died;
    * ``/debug/state`` — JSON snapshot of digests, cache/workspace-pool
      stats and flight-recorder occupancy;
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
