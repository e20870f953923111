"""Tests for runtime/trace.py and analysis/traces.py.

Gantt letter assignment (satellite regression: >26 kernel names used to
loop forever), Chrome-trace metadata, empty/degenerate traces, measured
idle accounting, and the speedup-curve helper.
"""

import json
import re

import pytest

from repro.analysis.traces import speedup_curve
from repro.runtime.trace import Trace, TraceEvent


def _trace(events, n_workers=2):
    tr = Trace(n_workers)
    for i, (name, w, t0, t1) in enumerate(events):
        tr.record(TraceEvent(i, name, w, t0, t1))
    return tr


# -- gantt ------------------------------------------------------------------

def test_gantt_terminates_with_30_names():
    # Regression: the letter-collision loop never terminated once the
    # alphabet ran out.  30 synthetic kernels all share the initial 'K'.
    names = [f"Kernel{i:02d}" for i in range(30)]
    tr = _trace([(n, i % 2, i * 1.0, i * 1.0 + 0.5)
                 for i, n in enumerate(names)])
    out = tr.gantt(width=60)
    assert "w00 |" in out and "legend:" in out
    # Every kernel got a legend entry.
    for n in names:
        assert f"={n}" in out


def test_gantt_letters_deterministic_and_unique():
    names = [f"Kernel{i:02d}" for i in range(30)]
    tr = _trace([(n, 0, i * 1.0, i * 1.0 + 0.5)
                 for i, n in enumerate(names)])
    assert tr.gantt(width=40) == tr.gantt(width=40)
    legend = tr.gantt(width=40).splitlines()[-1]
    letters = re.findall(r"(\S)=Kernel\d\d", legend)
    # 30 names <= 36-symbol pool: all distinct, none fell back to '#'.
    assert len(set(letters)) == len(letters) == 30
    assert "#" not in letters


def test_gantt_over_pool_shares_hash():
    # 40 colliding names exhaust letters+digits; the overflow shares '#'
    # instead of looping.
    names = [f"Kernel{i:02d}" for i in range(40)]
    tr = _trace([(n, 0, i * 1.0, i * 1.0 + 0.5)
                 for i, n in enumerate(names)])
    out = tr.gantt(width=40)
    assert "#=" in out


def test_gantt_prefers_own_initial():
    tr = _trace([("LAED4", 0, 0.0, 1.0), ("STEDC", 1, 0.0, 1.0)])
    legend = tr.gantt(width=20).splitlines()[-1]
    assert "L=LAED4" in legend and "S=STEDC" in legend


# -- chrome trace -----------------------------------------------------------

def test_chrome_trace_metadata_and_monotone_ts():
    tr = _trace([("A", 0, 0.0, 1.0), ("B", 1, 0.5, 2.0),
                 ("C", 0, 1.0, 1.5)], n_workers=2)
    events = tr.to_chrome_trace()
    # Valid JSON round-trip.
    assert json.loads(json.dumps(events)) == events
    meta = [e for e in events if e["ph"] == "M"]
    assert {"name": "repro-eig workers"} in [m["args"] for m in meta
                                             if m["name"] == "process_name"]
    thread_names = {m["tid"]: m["args"]["name"] for m in meta
                    if m["name"] == "thread_name"}
    assert thread_names == {0: "worker 0", 1: "worker 1"}
    sort_idx = {m["tid"]: m["args"]["sort_index"] for m in meta
                if m["name"] == "thread_sort_index"}
    assert sort_idx == {0: 0, 1: 1}
    xs = [e for e in events if e["ph"] == "X"]
    ts = [e["ts"] for e in xs]
    assert ts == sorted(ts)
    assert all(e["dur"] > 0 for e in xs)


def test_chrome_trace_ts_shift():
    tr = _trace([("A", 0, 1.0, 2.0)], n_workers=1)
    (x,) = [e for e in tr.to_chrome_trace(ts_shift=3.0) if e["ph"] == "X"]
    assert x["ts"] == (1.0 + 3.0) * 1e6


def test_chrome_trace_zero_duration_event():
    tr = _trace([("A", 0, 1.0, 1.0)], n_workers=1)
    (x,) = [e for e in tr.to_chrome_trace() if e["ph"] == "X"]
    assert x["dur"] == 0.01          # clamped so viewers render it


# -- degenerate traces ------------------------------------------------------

def test_empty_trace():
    tr = Trace(4)
    assert tr.makespan == 0.0
    assert tr.idle_fraction == 0.0
    assert tr.inferred_idle_fraction == 0.0
    assert tr.gantt() == "(empty trace)"
    assert "makespan" in tr.summary()
    assert all(e["ph"] == "M" for e in tr.to_chrome_trace())


def test_single_event_trace():
    tr = _trace([("Solo", 0, 2.0, 5.0)], n_workers=1)
    assert tr.makespan == 3.0
    assert tr.idle_fraction == 0.0
    assert tr.kernel_counts() == {"Solo": 1}
    assert "Solo" in tr.gantt(width=10)


def test_trace_event_is_an_immutable_value():
    ev = TraceEvent(3, "LAED4", 1, 2.0, 5.5, (0, 64), seq=7)
    assert ev == TraceEvent(3, "LAED4", 1, 2.0, 5.5, (0, 64), 0, 7)
    assert (ev.priority, ev.seq, ev.duration) == (0, 7, 3.5)
    assert TraceEvent(0, "a", 0, 0.0, 1.0).tag is None
    with pytest.raises(AttributeError):
        ev.t_end = 9.0


def test_kernel_totals_fold_in_event_order():
    tr = _trace([("B", 0, 0.0, 1.0), ("A", 1, 0.0, 0.5),
                 ("B", 0, 1.0, 1.25)])
    secs, counts = tr.kernel_totals()
    assert list(secs) == list(counts) == ["B", "A"]
    assert secs == tr.kernel_times() == {"B": 1.25, "A": 0.5}
    assert counts == tr.kernel_counts() == {"B": 2, "A": 1}


# -- measured idle ----------------------------------------------------------

def test_idle_fraction_measured_vs_inferred():
    # One worker busy [0,4], the other busy [0,1] then parked [1,3].
    tr = _trace([("A", 0, 0.0, 4.0), ("B", 1, 0.0, 1.0)], n_workers=2)
    assert tr.inferred_idle_fraction == (8.0 - 5.0) / 8.0
    tr.record_idle(1, 1.0, 3.0)
    assert tr.idle_fraction == 2.0 / 8.0
    # Parking outside the event window is clipped.
    tr.record_idle(1, 4.0, 10.0)
    assert tr.idle_fraction == 2.0 / 8.0
    assert "measured parking" in tr.summary()


def test_record_idle_ignores_empty_interval():
    tr = Trace(1)
    tr.record_idle(0, 2.0, 2.0)
    tr.record_idle(0, 3.0, 2.0)
    assert tr.idle_intervals == []


# -- speedup curve ----------------------------------------------------------

def test_speedup_curve_non_contiguous_workers():
    curve = speedup_curve({1: 12.0, 3: 4.0, 8: 2.0, 16: 1.5})
    assert curve[1] == 1.0
    assert curve[3] == 3.0
    assert curve[8] == 6.0
    assert curve[16] == 8.0


def test_speedup_curve_base_is_smallest_worker_count():
    # No 1-worker entry: the smallest recorded count is the baseline.
    curve = speedup_curve({4: 6.0, 12: 2.0})
    assert curve[4] == 1.0
    assert curve[12] == 3.0
