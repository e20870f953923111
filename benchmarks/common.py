"""Shared infrastructure for the figure/table benchmarks.

Matrices and solved task graphs are cached across benchmark modules so a
full ``pytest benchmarks/ --benchmark-only`` run generates each input
once.  Each benchmark writes its table/series to
``benchmarks/results/<name>.txt`` (and prints it), so the regenerated
paper data survives pytest's output capture.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import sys

import numpy as np

from repro.core import DCContext, DCOptions, submit_dc
from repro.matrices import test_matrix
from repro.runtime import Machine, SimulatedMachine, SequentialScheduler

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

#: The paper's virtual testbed: dual-socket 16-core Xeon-like machine.
PAPER_MACHINE = Machine()


def save_table(name: str, text: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text.rstrip() + "\n")
    print(f"\n{text}\n[saved to {path}]")


def bench_provenance() -> dict:
    """Host provenance stamped into every BENCH JSON envelope.

    Committed ``BENCH_*.json`` baselines gate regressions, so they must
    say how many CPUs the producing host had: a parallel speedup is
    only evidence where ``cpu_count >= n_workers``.
    """
    return {"cpu_count": os.cpu_count()}


def write_bench_json(name: str, payload: dict, *,
                     directory: str | None = None,
                     telemetry: dict | None = None) -> str:
    """Persist a benchmark result as machine-readable JSON.

    Writes ``<directory or benchmarks/results>/<name>.json`` with the
    payload wrapped in a small envelope (benchmark name, python/numpy
    versions, platform, host provenance) so regression tooling can
    compare runs.  Returns the path written.

    ``telemetry`` — optional compact observability block (typically
    :func:`solve_telemetry` or :func:`repro.obs.telemetry_block`: park
    time, idle fraction, cache hit rate, ...) stored alongside the
    results so regression gates can key on scheduler behaviour, not just
    wall time.
    """
    out_dir = directory or RESULTS_DIR
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.json")
    doc = {
        "benchmark": name,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "provenance": bench_provenance(),
        "results": payload,
    }
    if telemetry is not None:
        doc["telemetry"] = telemetry
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench json saved to {path}]")
    return path


def solve_telemetry(d: np.ndarray, e: np.ndarray, *,
                    options: DCOptions | None = None,
                    backend: str = "threads",
                    n_workers: int = 4) -> dict:
    """Run one solve and return the compact telemetry block read off its
    record (:func:`repro.obs.solve_metrics`).

    The convenience entry benchmarks use to populate the ``telemetry``
    envelope of :func:`write_bench_json`.
    """
    from repro.core.solver import dc_eigh
    from repro.obs import solve_metrics, telemetry_block

    res = dc_eigh(d, e, options=options, backend=backend,
                  n_workers=n_workers, full_result=True)
    return telemetry_block(solve_metrics(res), res.trace)


def load_bench_json(path: str) -> dict:
    """Load a results file written by :func:`write_bench_json`."""
    with open(path) as fh:
        doc = json.load(fh)
    return doc.get("results", doc)


@functools.lru_cache(maxsize=64)
def matrix(mtype: int, n: int, seed: int = 0):
    """Cached Table III matrix.

    Backed by an on-disk cache under ``benchmarks/results``: the
    prescribed-spectrum types are generated through a dense Haar
    similarity plus tridiagonalization — O(n³), ~half an hour at
    n=10000 on one core — while the (d, e) arrays themselves are 2n
    doubles.  Generation is deterministic, so caching is safe.
    """
    cache_dir = os.path.join(RESULTS_DIR, "matcache")
    path = os.path.join(cache_dir, f"t{mtype}_n{n}_s{seed}.npz")
    if os.path.exists(path):
        with np.load(path) as z:
            return z["d"], z["e"]
    d, e = test_matrix(mtype, n, seed=seed)
    os.makedirs(cache_dir, exist_ok=True)
    np.savez(path, d=d, e=e)
    return d, e


class SolvedGraph:
    """A D&C task graph executed once; re-simulatable for any core count.

    The functional payload runs a single time (sequential execution);
    afterwards every deflation-dependent task cost is known, so the
    discrete-event machine can replay the schedule for any worker count
    without re-running the numerics.
    """

    def __init__(self, d: np.ndarray, e: np.ndarray, opts: DCOptions):
        self.ctx = DCContext(d, e, opts)
        from repro.runtime import TaskGraph
        self.graph = TaskGraph()
        self.info = submit_dc(self.graph, self.ctx)
        SequentialScheduler().run(self.graph)

    def makespan(self, n_workers: int = 16,
                 machine: Machine | None = None) -> float:
        sim = SimulatedMachine(machine or PAPER_MACHINE,
                               n_workers=n_workers, execute=False)
        return sim.run(self.graph).makespan

    def trace(self, n_workers: int = 16, machine: Machine | None = None):
        sim = SimulatedMachine(machine or PAPER_MACHINE,
                               n_workers=n_workers, execute=False)
        return sim.run(self.graph)


@functools.lru_cache(maxsize=64)
def solved_graph(mtype: int, n: int, *, minpart: int = 128,
                 nb: int | None = None, fork_join: bool = False,
                 level_barrier: bool = False,
                 extra_workspace: bool = True, seed: int = 0) -> SolvedGraph:
    d, e = matrix(mtype, n, seed)
    opts = DCOptions(minpart=minpart, nb=nb, fork_join=fork_join,
                     level_barrier=level_barrier,
                     extra_workspace=extra_workspace)
    return SolvedGraph(d, e, opts)
