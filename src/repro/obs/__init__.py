"""Observability subsystem: views over each solve's own record.

Nothing is recorded beside what a solve already keeps: its run's
:class:`~repro.runtime.trace.Trace` (one event per completed task, plus
measured park intervals on the thread pool), its task graph, and its
per-merge :class:`~repro.core.merge.MergeStats`.  Every surface here is
derived from that record after the solve:

* :func:`~repro.obs.metrics.solve_metrics` — the counter schema of one
  finished solve (task counts, park time, ready-set depth, deflation by
  type, Givens chains, per-root LAED4 iterations, fallbacks, panel
  widths, workspace gauges; cache and arena counters from a session's
  ``stats()``);
* the exporters (:mod:`repro.obs.export`) — a JSONL event log, an
  enriched Perfetto/Chrome trace, a Prometheus text snapshot, collapsed
  stacks, and the compact ``telemetry_block`` / ``telemetry_summary``.
  The counter naming schema is documented in ``docs/OBSERVABILITY.md``;
* the always-on service layer (:mod:`repro.obs.live`): post-mortem
  bundles that replay the failing solve's own trace, constant-memory
  quantile :class:`Digest` sketches, per-session :class:`SessionMetrics`
  with exact per-kernel totals, and the :class:`MetricsServer` behind
  ``SolverSession(serve_port=...)`` / ``repro-eig serve``.
"""

from .live import (Digest, MetricsServer, SessionMetrics, debug_state,
                   healthz_payload, live_metrics_text, write_postmortem)
from .metrics import SolveMetrics, solve_metrics
from .export import (chrome_trace, collapsed_stacks, merge_spans_from_trace,
                     prom_label_value, prom_name, prometheus_text,
                     telemetry_block, telemetry_summary, write_jsonl)

__all__ = [
    "SolveMetrics", "solve_metrics",
    "chrome_trace", "collapsed_stacks", "merge_spans_from_trace",
    "prometheus_text", "telemetry_block", "telemetry_summary", "write_jsonl",
    "prom_name", "prom_label_value",
    "Digest", "SessionMetrics", "MetricsServer", "write_postmortem",
    "live_metrics_text", "healthz_payload", "debug_state",
]
