"""Hot-path benchmark: merge microkernels, solve latency, graph reuse.

Three sections, all written to ``BENCH_hotpath.json``:

``micro``
    The three vectorized merge kernels (PermuteV, CopyBackDeflated,
    ApplyGivens) against their seed ``_ref`` implementations on the root
    merge of a type-4 matrix.  The acceptance bar is a >= 3x speedup at
    ``n = 5000``.
``solve``
    End-to-end ``dc_eigh`` latency (sequential and 4-thread), tasks/sec,
    graph construction time, and the ``reuse_graph=True`` amortization:
    template-instantiation time as a fraction of a warm same-shape solve.
``smoke``
    A small fixed configuration re-run by CI.  ``--smoke`` executes only
    this section and exits non-zero if any timing regresses by more than
    2x against the committed ``BENCH_hotpath.json``, or if the plain
    solve drifts more than 3% against the baseline's recorded
    ``telemetry.solve_off_s`` (telemetry is a view read after the solve,
    so the solve itself must not pay for it).

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --full     # + n=10000
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke    # CI check

Matrix generation time (the Table III generators are O(n^3) for the
spectrum-prescribed types) is excluded from every metric.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import load_bench_json, matrix, write_bench_json  # noqa: E402

from repro.core import (DCContext, DCOptions, dc_eigh, graph_template_cache,
                        panel_ranges, submit_dc, template_key)  # noqa: E402
from repro.core.merge import MergeState  # noqa: E402
from repro.runtime import SequentialScheduler, TaskGraph  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "BENCH_hotpath.json")

SMOKE_MICRO_N = 1200
SMOKE_SOLVE_N = 800
SMOKE_MTYPE = 4


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _merge_states(graph: TaskGraph) -> list[MergeState]:
    states = {id(s): s for t in graph.tasks
              if isinstance(s := getattr(t.func, "__self__", None),
                            MergeState)}
    return sorted(states.values(), key=lambda s: (s.n, s.lo))


def _time_states(states, ctx, kernel: str, repeats: int = 3) -> float:
    """Sum one pass of ``kernel`` over every panel/group of ``states``."""
    nb = ctx.opts.effective_nb(ctx.n)

    def run():
        for s in states:
            panels = panel_ranges(s.n, nb)
            if kernel.startswith("t_apply_givens"):
                fn = getattr(s, kernel)
                ng = min(len(panels), 4)
                for g in range(ng):
                    fn(g, ng)
            else:
                fn = getattr(s, kernel)
                for p0, p1 in panels:
                    fn(p0, p1)

    return _best_of(run, repeats)


class _Rot:
    """Synthetic rotation record (same attributes as deflation's)."""
    __slots__ = ("i", "j", "c", "s")

    def __init__(self, i, j, c, s):
        self.i, self.j, self.c, self.s = i, j, c, s


def _bench_givens_batch(heights: list[int], repeats: int = 3) -> list[dict]:
    """Batched vs streaming Givens on synthetic heavy-deflation chains.

    Table III spectra deflate almost exclusively through small
    z-components, so real solves carry near-zero rotation work; this
    measures the regime the batched kernel exists for — many disjoint
    close-eigenvalue pairs, one rotation each (the DLAED2 pattern).
    """
    import numpy as np

    from repro.kernels.givens import apply_rotation_chains

    rng = np.random.default_rng(0)
    out = []
    for h in heights:
        V = np.asfortranarray(rng.normal(size=(h, h)))
        cols = rng.permutation(h)
        m = h // 4
        theta = rng.uniform(0.0, 1.5, size=m)
        chains = [[_Rot(int(cols[2 * a]), int(cols[2 * a + 1]),
                        float(np.cos(t)), float(np.sin(t)))]
                  for a, t in enumerate(theta)]

        vec_s = _best_of(
            lambda: apply_rotation_chains(V, 0, h, chains), repeats)

        def seed():
            for chain in chains:
                for r in chain:
                    qi = V[:, r.i]
                    qj = V[:, r.j]
                    tmp = r.c * qi + r.s * qj
                    qj *= r.c
                    qj -= r.s * qi
                    qi[...] = tmp

        ref_s = _best_of(seed, repeats)
        out.append({"height": h, "n_rotations": m, "vec_s": vec_s,
                    "ref_s": ref_s, "speedup": ref_s / vec_s})
        print(f"  givens-batch h={h:5d} m={m:5d}: "
              f"ref {ref_s * 1e3:8.2f} ms  vec {vec_s * 1e3:8.2f} ms  "
              f"{ref_s / vec_s:5.1f}x")
    return out


def bench_micro(n: int, mtype: int = 4, repeats: int = 3) -> dict:
    """Time the vectorized merge kernels against the seed references.

    The solve runs once (sequentially) to populate every merge state;
    the kernels are then re-invoked in place over the whole merge
    hierarchy — the solver's actual hot path.  Re-running them mutates
    workspace contents but not shapes or costs, which is all timing
    needs.  Results are split by merge span: the root merge is pure
    memory bandwidth (both implementations issue large memcpys), while
    the small merges — the bulk of the DAG's tasks — are dominated by
    per-column Python dispatch that vectorization removes.
    """
    d, e = matrix(mtype, n)
    opts = DCOptions()
    ctx = DCContext(d, e, opts)
    graph = TaskGraph()
    submit_dc(graph, ctx)
    SequentialScheduler().run(graph)
    states = _merge_states(graph)
    root = states[-1]
    small = [s for s in states if s.n <= 1024]

    out = {"n": n, "mtype": mtype, "n_merges": len(states),
           "root_k": root.k,
           "n_rotations": sum(len(s.defl.rotations) for s in states),
           "kernels": {}}
    for name, vec, ref in (("permute", "t_permute_panel",
                            "t_permute_panel_ref"),
                           ("copyback", "t_copyback_panel",
                            "t_copyback_panel_ref"),
                           ("givens", "t_apply_givens",
                            "t_apply_givens_ref")):
        rec = {}
        for scope, scope_states in (("all", states), ("root", [root]),
                                    ("small", small)):
            vec_s = _time_states(scope_states, ctx, vec, repeats)
            ref_s = _time_states(scope_states, ctx, ref, repeats)
            rec[scope] = {"vec_s": vec_s, "ref_s": ref_s,
                          "speedup": ref_s / vec_s if vec_s > 0
                          else float("inf")}
        rec.update(rec["all"])          # flat fields = whole-hierarchy
        out["kernels"][name] = rec
        print(f"  {name:10s} all {rec['all']['speedup']:5.2f}x   "
              f"root {rec['root']['speedup']:5.2f}x   "
              f"small(<=1024) {rec['small']['speedup']:5.2f}x   "
              f"[ref {rec['ref_s'] * 1e3:.2f} ms -> "
              f"vec {rec['vec_s'] * 1e3:.2f} ms]")
    out["givens_batch"] = _bench_givens_batch(
        [h for h in (312, 1250, n) if h <= n], repeats)
    return out


def bench_solve(mtype: int, n: int, n_reuse: int = 10) -> dict:
    """End-to-end latency, graph-build time, and reuse amortization."""
    d, e = matrix(mtype, n)
    opts = DCOptions()

    # Graph construction (build_tree + submit_dc dependency analysis).
    ctx = DCContext(d, e, opts)
    graph = TaskGraph()
    t0 = time.perf_counter()
    submit_dc(graph, ctx)
    graph_build_s = time.perf_counter() - t0
    n_tasks = len(graph.tasks)

    t0 = time.perf_counter()
    dc_eigh(d, e, options=opts)
    seq_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    dc_eigh(d, e, options=opts, backend="threads", n_workers=4)
    threads_s = time.perf_counter() - t0

    # Template reuse: one miss to warm the cache, then measure warm
    # instantiation and warm whole-solve latency.
    graph_template_cache.clear()
    reuse_opts = opts.with_(reuse_graph=True)
    dc_eigh(d, e, options=reuse_opts)
    key = template_key(ctx.n, opts)
    t0 = time.perf_counter()
    graph_template_cache.get_or_build(DCContext(d, e, opts), key)
    instantiate_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n_reuse):
        dc_eigh(d, e, options=reuse_opts)
    reuse_mean_s = (time.perf_counter() - t0) / n_reuse

    rec = {
        "mtype": mtype, "n": n, "n_tasks": n_tasks,
        "graph_build_s": graph_build_s,
        "solve_seq_s": seq_s, "solve_threads4_s": threads_s,
        "tasks_per_s": n_tasks / seq_s,
        "reuse": {
            "n_solves": n_reuse,
            "instantiate_s": instantiate_s,
            "mean_solve_s": reuse_mean_s,
            "amortized_fraction": instantiate_s / reuse_mean_s,
        },
    }
    print(f"  type {mtype} n={n:6d}: seq {seq_s:7.3f} s  "
          f"threads4 {threads_s:7.3f} s  build {graph_build_s * 1e3:7.1f} ms"
          f"  inst {instantiate_s * 1e3:6.1f} ms "
          f"({100 * rec['reuse']['amortized_fraction']:.2f}% of warm solve)"
          f"  {rec['tasks_per_s']:8.0f} tasks/s")
    return rec


def bench_telemetry(mtype: int, n: int, repeats: int = 5) -> dict:
    """Plain-solve latency + a scheduler telemetry block.

    ``solve_off_s`` is the plain sequential solve — the gate asserting
    that telemetry costs the solve nothing keys on it.  ``threads4`` is
    the compact telemetry block (park time, idle fraction, ...) of a
    4-worker solve, read off its record and embedded in the BENCH JSON
    envelope.
    """
    from common import solve_telemetry

    d, e = matrix(mtype, n)
    off_s = _best_of(lambda: dc_eigh(d, e), repeats)
    block = solve_telemetry(d, e, n_workers=4)
    rec = {"mtype": mtype, "n": n, "solve_off_s": off_s, "threads4": block}
    print(f"  telemetry type {mtype} n={n}: solve {off_s:7.3f} s  "
          f"parked {block.get('park_time_s'):.3g} s  "
          f"idle {block.get('idle_fraction'):.1%}")
    return rec


def bench_smoke() -> dict:
    """Small fixed configuration for CI regression checks."""
    print(f"[smoke] micro n={SMOKE_MICRO_N}, solve n={SMOKE_SOLVE_N}, "
          f"type {SMOKE_MTYPE}")
    micro = bench_micro(SMOKE_MICRO_N, SMOKE_MTYPE)
    solve = bench_solve(SMOKE_MTYPE, SMOKE_SOLVE_N, n_reuse=5)
    telemetry = bench_telemetry(SMOKE_MTYPE, SMOKE_SOLVE_N)
    return {"micro": micro, "solve": solve, "telemetry": telemetry}


def check_regression(current: dict, baseline_path: str = BASELINE,
                     factor: float = 2.0,
                     telemetry_factor: float = 1.03) -> list[str]:
    """Compare smoke timings against the committed baseline.

    Returns a list of human-readable failures (empty = pass).  Only
    timings are compared; speedup ratios are hardware-sensitive enough
    that the ratio itself (vec vs ref on the *same* machine) is the
    robust signal, so a vectorized kernel falling behind its own
    reference is also flagged.
    """
    if not os.path.exists(baseline_path):
        print(f"[smoke] no baseline at {baseline_path}; skipping comparison")
        return []
    base = load_bench_json(baseline_path).get("smoke")
    if not base:
        return []
    failures = []
    for kname, kcur in current["micro"]["kernels"].items():
        kbase = base["micro"]["kernels"].get(kname)
        if kbase and kcur["vec_s"] > factor * kbase["vec_s"]:
            failures.append(
                f"micro/{kname}: {kcur['vec_s']:.4f}s vs baseline "
                f"{kbase['vec_s']:.4f}s (> {factor}x)")
        if kcur["ref_s"] > 1e-3 and kcur["speedup"] < 0.9:
            failures.append(
                f"micro/{kname}: vectorized kernel slower than seed "
                f"reference ({kcur['speedup']:.2f}x)")
    for field in ("solve_seq_s", "graph_build_s"):
        if current["solve"][field] > factor * base["solve"][field]:
            failures.append(
                f"solve/{field}: {current['solve'][field]:.4f}s vs "
                f"baseline {base['solve'][field]:.4f}s (> {factor}x)")
    cur_frac = current["solve"]["reuse"]["amortized_fraction"]
    if cur_frac > 0.25:
        failures.append(
            f"reuse amortized_fraction {cur_frac:.3f} > 0.25 "
            "(template instantiation no longer cheap)")
    # Plain-solve gate: telemetry is read off the solve's record, so the
    # solve must not pay for it.  Tighter than the generic 2x factor — a
    # 3% drift on the plain solve path fails the gate.
    tel_cur, tel_base = current.get("telemetry"), base.get("telemetry")
    if tel_cur and tel_base:
        off_cur = tel_cur["solve_off_s"]
        off_base = tel_base["solve_off_s"]
        if off_cur > telemetry_factor * off_base:
            failures.append(
                f"telemetry/solve_off_s: {off_cur:.4f}s vs baseline "
                f"{off_base:.4f}s (> {telemetry_factor:.2f}x; "
                "the plain solve path got slower)")
    elif tel_cur and not tel_base:
        print("[smoke] baseline has no telemetry block; "
              "skipping the plain-solve gate")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="run only the small CI configuration and fail on "
                         ">2x regression vs the committed baseline")
    ap.add_argument("--full", action="store_true",
                    help="add the expensive n=10000 configurations")
    ap.add_argument("--micro-n", type=int, default=5000,
                    help="microkernel matrix size (default 5000)")
    ap.add_argument("--out", default=None,
                    help="directory for the JSON (default: repo root for "
                         "full runs, none for --smoke)")
    args = ap.parse_args(argv)

    if args.smoke:
        smoke = bench_smoke()
        failures = check_regression(smoke)
        if args.out:
            write_bench_json("BENCH_hotpath_smoke", {"smoke": smoke},
                             directory=args.out)
        if failures:
            print("\nREGRESSIONS DETECTED:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print("\nsmoke OK (no >2x regressions vs baseline)")
        return 0

    payload: dict = {}
    print(f"[micro] n={args.micro_n}, type 4 "
          "(vectorized vs seed reference kernels)")
    payload["micro"] = bench_micro(args.micro_n)

    print("[solve] latency / graph build / template reuse")
    configs = [(2, 1000), (3, 1000), (4, 1000),
               (2, 2500), (3, 2500), (4, 2500),
               (4, 5000)]
    if args.full:
        configs += [(2, 5000), (3, 5000), (2, 10000), (3, 10000),
                    (4, 10000)]
    payload["solve"] = [bench_solve(mt, n) for mt, n in configs]

    payload["smoke"] = bench_smoke()

    out_dir = args.out or REPO_ROOT
    write_bench_json("BENCH_hotpath", payload, directory=out_dir,
                     telemetry=payload["smoke"]["telemetry"]["threads4"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
