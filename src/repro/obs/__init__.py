"""Observability subsystem: spans, counters, metrics, trace export.

Zero-overhead when disabled: the solver, schedulers and kernels all hold
a :class:`~repro.obs.recorder.NullRecorder` by default and guard every
metric computation behind ``recorder.enabled``.  Passing
``DCOptions(telemetry=Collector())`` switches the same call sites to the
structured :class:`~repro.obs.recorder.Collector`, which captures

* hierarchical wall-clock **spans** (solve → graph build/instantiate →
  execute → finalize),
* **scheduler counters** (park cycles and time, ready-queue depth
  samples, dependency-resolution time),
* **graph-cache counters** (template hits/misses, build/instantiate
  time),
* **numeric-health metrics** (per-merge deflation ratios by type, LAED4
  iteration histograms, Givens chain lengths, workspace high water),

and exports them as a JSONL event log, an enriched Perfetto/Chrome
trace, or a Prometheus text snapshot (:mod:`repro.obs.export`).  The
counter naming schema is documented in ``docs/OBSERVABILITY.md``.

On top of the per-solve Collector sits the always-on service layer
(:mod:`repro.obs.live`), derived from each run's event log (its
:class:`~repro.runtime.trace.Trace`): post-mortem bundles that replay
the failing solve's own trace, constant-memory quantile :class:`Digest`
sketches, per-session :class:`SessionMetrics` with exact per-kernel
totals, and the :class:`MetricsServer` behind
``SolverSession(serve_port=...)`` / ``repro-eig serve``.
:func:`~repro.obs.export.collapsed_stacks` turns any trace into
flamegraph input.
"""

from .live import (Digest, MetricsServer, SessionMetrics, debug_state,
                   healthz_payload, live_metrics_text, write_postmortem)
from .recorder import (Collector, NullRecorder, NULL_RECORDER, Recorder,
                       SpanRecord)
from .export import (chrome_trace, collapsed_stacks, merge_spans_from_trace,
                     prom_label_value, prom_name, prometheus_text,
                     telemetry_block, telemetry_summary, write_jsonl)

__all__ = [
    "Collector", "NullRecorder", "NULL_RECORDER", "Recorder", "SpanRecord",
    "chrome_trace", "collapsed_stacks", "merge_spans_from_trace",
    "prometheus_text", "telemetry_block", "telemetry_summary", "write_jsonl",
    "prom_name", "prom_label_value",
    "Digest", "SessionMetrics", "MetricsServer", "write_postmortem",
    "live_metrics_text", "healthz_payload", "debug_state",
]
