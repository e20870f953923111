"""Process-parallel execution backend: the task flow on real cores.

Python's GIL serializes fine-grained pure-Python tasks, so the threads
backend only scales where NumPy releases the GIL (the cubic GEMMs).
The paper's point (Pichon et al., IPDPS 2015) is that the *quadratic*
merge kernels — Compute_deflation, PermuteV, LAED4, CopyBack — must run
alongside them.  :class:`ProcPool` gets real concurrency from OS
processes while keeping the task-flow semantics of
:class:`~repro.runtime.scheduler.WorkerPool` intact:

* **Shared-memory workspaces.**  V / Vws / D (and every merge's secular
  block X) live in ``multiprocessing.shared_memory`` segments managed
  by a :class:`~repro.core.session.SharedWorkspacePool`, so panel tasks
  in worker processes mutate the same physical pages the parent reads —
  task dispatch ships only ``(run id, task.seq)`` over a pipe, never
  array data.

* **Replica graphs + state deltas.**  Each worker builds an *identical*
  replica of the solve's :class:`DCContext` and task graph from the
  tiny problem description ``(d, e, opts, subset)`` — graph
  instantiation is deterministic, so task numbering and panel widths
  match bit for bit.  Kernels that produce small Python state
  (deflation results, secular roots, the rank-one vector) return a
  pickled *delta*; the parent applies it to
  its own replica and broadcasts it to the other workers **before**
  marking successors ready, so FIFO pipe order guarantees every task
  sees its predecessors' state.  Everything O(n²) stays in shared
  memory.

* **Parent-side scheduling.**  The parent's dispatcher thread drives
  the shared engine (:mod:`repro.runtime.engine`): readiness and
  release through :class:`~repro.runtime.engine.EngineRun`, the
  priority order through :class:`~repro.runtime.engine.ReadyQueue`
  (same keys as ``WorkerPool``: ``(-priority, order_base + seq)``),
  per-run fault injectors at dispatch, the secular-failure STEQR
  fallback (child replicas set ``ctx._defer_fallback``; the parent-side
  countdown is the engine's :func:`~repro.runtime.engine.parent_epilogue`
  hook), and degrades a worker crash into a typed
  :class:`~repro.errors.TaskFailure` while surviving workers drain and
  a replacement is respawned for future runs.

Numerics are bitwise identical to the sequential backend: every kernel
executes exactly once, on operands that are either shared pages or
exact pickled copies of the producing kernel's outputs.
"""

from __future__ import annotations

import itertools
import os
import pickle
import queue
import signal
import socket
import threading
import time
import multiprocessing as mp
from collections import OrderedDict
from multiprocessing import shared_memory
from multiprocessing.connection import wait as wait_conns
from typing import Any, Callable, Optional

import numpy as np

from ..errors import SchedulerError, TaskFailure
from .engine import EngineRun, ExecutionCore, ReadyQueue, parent_epilogue
from .trace import TraceEvent

__all__ = ["ProcPool", "ProcRun"]

#: Back-compat alias: the run-isolation record now lives in the engine
#: (one record shared with the thread substrate's ``PoolRun``).
ProcRun = EngineRun

#: Tasks dispatched ahead to each worker so the pipe hides latency.
_PREFETCH = 2
#: Messages handled from one worker before the dispatcher looks again
#: at submissions, crashes and the ready queue.
_DRAIN_BATCH = 256
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# Resource-tracker note: spawned children inherit the parent's tracker
# process, and ``SharedMemory`` registers a segment only on *create*.
# Every name is therefore registered exactly once (parent workspaces by
# the parent pool, X blocks by the child that allocates them) and
# unregistered exactly once by whoever unlinks it — and if a worker is
# killed between creating an X block and the parent adopting it, the
# shared tracker still reclaims the segment at exit.

# ---------------------------------------------------------------------------
# Kernel state deltas
# ---------------------------------------------------------------------------
#
# Kernels either mutate shared arrays in place (no delta) or produce
# small Python state on their owner object (the DCContext or a
# MergeState).  The owner is recovered from the task's bound method, so
# extraction/application need no registry of spans — ``task.func`` on
# any replica is bound to that replica's owner.

def _extract_delta(task, segs) -> Optional[bytes]:
    """Pickle the Python state ``task`` produced, or None."""
    f = task.func
    name = getattr(f, "__name__", "")
    o = getattr(f, "__self__", None)
    data: Any
    if name == "t_scale":
        data = (o.d, o.e, o.scale_info)
    elif name == "t_partition":
        data = o.d_adj
    elif name == "t_compute_deflation":
        x_name = segs.name_of(o.X) if o.X is not None and o.X.size else None
        data = {"defl": o.defl, "x": x_name,
                "stats": (o.stats.n, o.stats.k, o.stats.n_rotations)}
    elif name == "t_laed4_panel":
        p0, _ = task.args
        ok = p0 in o._sweeps
        roots = o.clip_roots(*task.args) if ok else None
        data = {"vals": (o.orig[roots], o.tau[roots], o.lam[roots])
                        if ok and roots.size else None,
                "sweeps": o._sweeps.get(p0),
                "failed": o.secular_failed,
                "exc": str(o.fallback_exc) if o.fallback_exc else None}
        if data["vals"] is None and data["sweeps"] is None \
                and not data["failed"]:
            return None                       # empty panel past k: no-op
    elif name == "t_local_w_panel":
        pid = task.args[2]
        w = o.wparts.get(pid)
        if w is None:
            return None                       # skipped (empty / failed)
        data = (pid, w)
    elif name == "t_reduce_w":
        data = {"zhat": o.zhat,
                "sweeps": o.stats.secular_sweeps,
                "wanted": o.wanted_stored,
                "failed": o.secular_failed,
                "exc": str(o.fallback_exc) if o.fallback_exc else None}
    elif name == "t_sort_join":
        data = (o.order, o.D_sorted)
    elif name == "t_scale_back":
        data = o.D_sorted
    else:
        return None                           # shared-array kernel
    return pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)


def _apply_delta(task, data, attach) -> None:
    """Apply a delta to this process's replica.

    ``attach(name, shape)`` maps a shared-memory segment into this
    process (the parent adopts ownership; children only attach).
    """
    from ..errors import ConvergenceError
    from ..kernels.deflation import rotation_chains

    f = task.func
    name = getattr(f, "__name__", "")
    o = getattr(f, "__self__", None)
    if name == "t_scale":
        o.d, o.e, o.scale_info = data
    elif name == "t_partition":
        o.d_adj = data
    elif name == "t_compute_deflation":
        defl = data["defl"]
        o.defl = defl
        o.chains = rotation_chains(defl.rotations)
        cuts = np.flatnonzero(np.diff(defl.perm) != 1) + 1
        o._perm_runs = [0, *cuts.tolist(), defl.perm.size]
        k = defl.k
        o.orig = np.zeros(k, dtype=np.intp)
        o.tau = np.zeros(k)
        o.lam = np.zeros(k)
        o.X = attach(data["x"], (k, k)) if data["x"] else np.zeros((0, 0))
        o.stats.n, o.stats.k, o.stats.n_rotations = data["stats"]
        o.ctx._merge_stats[(o.lo, o.hi)] = o.stats
    elif name == "t_laed4_panel":
        if data["vals"] is not None:
            roots = o.clip_roots(*task.args)
            o.orig[roots], o.tau[roots], o.lam[roots] = data["vals"]
        if data["sweeps"] is not None:
            o._sweeps[task.args[0]] = data["sweeps"]
        if data["failed"]:
            o._mark_secular_failure(ConvergenceError(
                data["exc"] or "secular solve failed on a worker process"))
    elif name == "t_local_w_panel":
        pid, w = data
        o.wparts[pid] = w
    elif name == "t_reduce_w":
        o.stats.secular_sweeps = data["sweeps"]
        o.wanted_stored = data["wanted"]
        o.zhat = data["zhat"]
        if data["failed"]:
            o._mark_secular_failure(ConvergenceError(
                data["exc"] or "rank-one reduction failed on a worker "
                               "process"))
    elif name == "t_sort_join":
        o.order, o.D_sorted = data
    elif name == "t_scale_back":
        o.D_sorted = data


def _encode_exc(exc: BaseException):
    """Best-effort portable encoding of a worker exception."""
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return blob
    except Exception:
        return (type(exc).__name__, str(exc))


def _decode_exc(enc) -> BaseException:
    if isinstance(enc, (bytes, bytearray)):
        try:
            return pickle.loads(enc)
        except Exception:
            return RuntimeError("worker raised an unpicklable exception")
    name, text = enc
    return RuntimeError(f"{name}: {text}")


# ---------------------------------------------------------------------------
# Child process
# ---------------------------------------------------------------------------

class _SegCache:
    """Child-side shared-memory attachments + X-block allocator.

    Doubles as the replica context's ``workspace`` so
    ``t_compute_deflation`` allocates its secular block X in a fresh
    segment; the name travels in the kernel's delta and the parent pool
    *adopts* the segment (ownership, and the unlink duty, never rest
    with a worker that may be killed).
    """

    shared = True

    def __init__(self, max_entries: int = 512):
        self._max = max_entries
        self._entries: OrderedDict[str, tuple] = OrderedDict()
        self._by_id: dict[int, str] = {}
        self._seq = itertools.count()

    def attach(self, name: str, shape) -> np.ndarray:
        ent = self._entries.get(name)
        if ent is not None and ent[1].shape == tuple(shape):
            self._entries.move_to_end(name)
            return ent[1]
        shm = shared_memory.SharedMemory(name=name)
        arr = np.ndarray(tuple(shape), dtype=np.float64, order="F",
                         buffer=shm.buf)
        self._put(name, shm, arr)
        return arr

    def take(self, shape) -> np.ndarray:
        nbytes = max(1, 8 * int(np.prod(shape)))
        name = f"repro-x-{os.getpid()}-{next(self._seq)}"
        shm = shared_memory.SharedMemory(create=True, size=nbytes, name=name)
        arr = np.ndarray(tuple(shape), dtype=np.float64, order="F",
                         buffer=shm.buf)
        self._put(name, shm, arr)
        return arr

    def name_of(self, arr: np.ndarray) -> str:
        return self._by_id[id(arr)]

    def _put(self, name: str, shm, arr: np.ndarray) -> None:
        self._entries[name] = (shm, arr)
        self._by_id[id(arr)] = name
        while len(self._entries) > self._max:
            _, (old_shm, old_arr) = self._entries.popitem(last=False)
            self._by_id.pop(id(old_arr), None)
            try:
                old_shm.close()
            except BufferError:
                # The array is still referenced by an active replica:
                # keep the mapping alive; GC reclaims it later.
                pass


def _child_begin(payload: dict, segs: _SegCache) -> dict:
    """Build this worker's replica of one solve: context + graph.

    Graph instantiation is deterministic (task ``seq`` numbering follows
    submission order), so the replica's DAG is identical to the
    parent's — same seqs, same panel widths.
    """
    from ..core.merge import DCContext

    opts = payload["opts"]
    # jobz='N' payloads carry no V/Vws segments — attach whatever the
    # parent shipped (D and the strips are always present).
    buffers = {key: segs.attach(*payload[key])
               for key in ("D", "V", "Vws", "S", "P", "Pws")
               if key in payload}
    ctx = DCContext(payload["d"], payload["e"], opts,
                    subset=payload["subset"], buffers=buffers)
    ctx.workspace = segs
    # The parent dispatcher owns the writer countdown and performs the
    # STEQR fallback with exclusive access to the shared arrays.
    ctx._defer_fallback = True
    if opts.reuse_graph:
        from ..core.graph_cache import graph_template_cache, template_key
        subset = ctx.subset
        key = template_key(ctx.n, opts,
                           None if subset is None else int(subset.shape[0]))
        graph, info = graph_template_cache.get_or_build(ctx, key)
    else:
        from ..core.tasks import submit_dc
        from ..core.tree import build_tree
        from .dag import TaskGraph
        graph = TaskGraph()
        info = submit_dc(graph, ctx, build_tree(ctx.n, opts.minpart))
    return {"ctx": ctx, "graph": graph, "info": info}


def _proc_worker_main(wid: int, conn, results) -> None:
    """Worker process main loop.

    Protocol (parent -> child over a one-way pipe, FIFO):
      ``("begin", rid, payload)``  build a replica for run ``rid``
      ``("delta", rid, seq, blob)`` apply a peer task's state delta
      ``("task", rid, seq)``        execute task ``seq`` of run ``rid``
      ``("end", rid)``              drop the replica
      ``("stop",)``                 exit

    Child -> parent over the worker's own one-way pipe (a queue shared
    by all workers has one write lock; a worker killed while holding it
    would block every other worker for good):
      ``("ready", wid)`` / ``("done", wid, rid, seq, t0, t1, delta)`` /
      ``("fail", wid, rid, seq, exc)`` /
      ``("bounce", wid, rid, seq)`` (task for an unknown run) /
      ``("beginfail", wid, rid, exc)``
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):            # pragma: no cover
        pass
    segs = _SegCache()
    runs: dict[int, Optional[dict]] = {}
    results.send(("ready", wid))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "task":
            _, rid, seq = msg
            entry = runs.get(rid)
            if entry is None:
                if rid in runs:              # poisoned replica
                    results.send(("fail", wid, rid, seq,
                                  _encode_exc(RuntimeError(
                                      "replica state unavailable on this "
                                      "worker"))))
                else:
                    results.send(("bounce", wid, rid, seq))
                continue
            task = entry["graph"].tasks[seq]
            t0 = time.perf_counter()
            try:
                task.run()
                delta = _extract_delta(task, segs)
            except BaseException as exc:
                results.send(("fail", wid, rid, seq, _encode_exc(exc)))
                continue
            t1 = time.perf_counter()
            task.mark_done()
            results.send(("done", wid, rid, seq, t0, t1, delta))
        elif kind == "delta":
            _, rid, seq, blob = msg
            entry = runs.get(rid)
            if entry is None:
                continue
            try:
                _apply_delta(entry["graph"].tasks[seq],
                             pickle.loads(blob), segs.attach)
            except BaseException:
                # Corrupted replica: poison the run; subsequent tasks
                # for it fail back to the parent instead of computing
                # on stale state.
                runs[rid] = None
        elif kind == "begin":
            _, rid, payload = msg
            try:
                runs[rid] = _child_begin(payload, segs)
            except BaseException as exc:
                runs[rid] = None
                results.send(("beginfail", wid, rid, _encode_exc(exc)))
        elif kind == "end":
            runs.pop(msg[1], None)
        elif kind == "stop":
            break
    try:
        conn.close()
    except OSError:                          # pragma: no cover
        pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("wid", "epoch", "proc", "send", "results", "outq",
                 "sender", "alive", "load")

    def __init__(self, wid: int, epoch: int, proc, send, results):
        self.wid = wid
        self.epoch = epoch
        self.proc = proc
        self.send = send
        self.results = results                # None once at EOF
        self.outq: queue.SimpleQueue = queue.SimpleQueue()
        self.alive = True
        self.load = 0                         # tasks dispatched, not done
        self.sender = threading.Thread(target=self._sender_loop,
                                       name=f"proc-sender-{wid}",
                                       daemon=True)
        self.sender.start()

    def _sender_loop(self) -> None:
        # A dedicated sender per worker keeps the dispatcher from
        # blocking on a full pipe while a child runs a long task.
        while True:
            msg = self.outq.get()
            if msg is None:
                break
            try:
                self.send.send(msg)
            except (OSError, ValueError, BrokenPipeError):
                break


class ProcPool:
    """Persistent pool of spawned worker processes executing task flows.

    Workers are created once (spawn context — no inherited locks or BLAS
    state) and reused across every solve of the session, exactly like
    the thread-backed :class:`~repro.runtime.scheduler.WorkerPool`.
    ``submit_solve`` is thread-safe; a single dispatcher thread owns all
    scheduling state.
    """

    def __init__(self, n_workers: int, *, workspace, recorder=None):
        self.n_workers = max(1, int(n_workers))
        self.workspace = workspace
        self.recorder = recorder
        self._worker_names = [f"proc-worker-{w}"
                              for w in range(self.n_workers)]
        self._mp = mp.get_context("spawn")
        # Byte socket that wakes the dispatcher out of its wait on the
        # workers' result pipes.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._submits: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._order = 0
        self._rids = itertools.count()
        self._epochs = itertools.count()
        self._active: dict[int, EngineRun] = {}
        self._ready = ReadyQueue()            # (task, run) by engine key
        self.runs_completed = 0
        self._shutdown = False
        self._workers = [self._spawn(w) for w in range(self.n_workers)]
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="proc-pool-dispatch",
                                            daemon=True)
        self._dispatcher.start()

    # -- lifecycle -------------------------------------------------------
    def _spawn(self, wid: int) -> _Worker:
        recv, send = self._mp.Pipe(duplex=False)
        results, child_results = self._mp.Pipe(duplex=False)
        # Children must not oversubscribe: each runs single-threaded
        # BLAS unless the user pinned the knobs explicitly.  The env is
        # only mutated around the spawn and restored right after.
        added = [v for v in _BLAS_VARS if v not in os.environ]
        for v in added:
            os.environ[v] = "1"
        try:
            proc = self._mp.Process(target=_proc_worker_main,
                                    args=(wid, recv, child_results),
                                    name=f"proc-worker-{wid}", daemon=True)
            proc.start()
        finally:
            for v in added:
                os.environ.pop(v, None)
        # Only the child may hold the write end: its death is then EOF.
        recv.close()
        child_results.close()
        return _Worker(wid, next(self._epochs), proc, send, results)

    def shutdown(self) -> None:
        """Stop the dispatcher, the workers, and fail stranded runs."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        self._submits.put(("stop",))
        self._wake()
        self._dispatcher.join(timeout=60)
        for w in self._workers:
            w.proc.join(timeout=5)
            if w.proc.is_alive():            # pragma: no cover
                w.proc.terminate()
                w.proc.join(timeout=5)
            try:
                w.send.close()
            except OSError:                  # pragma: no cover
                pass
            if w.results is not None:
                w.results.close()
        self._wake_r.close()
        self._wake_w.close()

    def __enter__(self) -> "ProcPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- submission ------------------------------------------------------
    def submit_solve(self, ctx, graph, info, opts, *, injector=None,
                     on_done: Optional[Callable[[EngineRun], None]] = None
                     ) -> EngineRun:
        """Submit one solve; returns its :class:`EngineRun` handle.

        ``ctx``/``graph``/``info`` are the parent's replica — the same
        objects the sequential backend would execute.  Workers rebuild
        them independently from ``(d, e, opts, subset)``.
        """
        graph.validate_acyclic()
        with self._lock:
            if self._shutdown:
                raise SchedulerError("worker pool is shut down")
            run = EngineRun(graph, self._order, recorder=opts.telemetry,
                            injector=injector, on_done=on_done,
                            rid=next(self._rids), ctx=ctx, info=info,
                            opts=opts)
            self._order += max(1, run.n_tasks)
        self._submits.put(("run", run))
        self._wake()
        return run

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:                      # full: dispatcher is awake anyway
            pass

    # -- dispatcher ------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            stop = False
            while True:
                try:
                    cmd = self._submits.get_nowait()
                except queue.Empty:
                    break
                if cmd[0] == "stop":
                    stop = True
                else:
                    self._begin_run(cmd[1])
            if stop:
                break
            self._check_workers()
            self._dispatch_ready()
            by_conn = {w.results: w for w in self._workers
                       if w.results is not None}
            for conn in wait_conns([self._wake_r, *by_conn], timeout=0.05):
                if conn is self._wake_r:
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except OSError:
                        pass
                else:
                    self._drain(by_conn[conn], _DRAIN_BATCH)
        self._teardown()

    def _drain(self, w: _Worker, limit: Optional[int] = None) -> None:
        """Handle up to ``limit`` messages already in ``w``'s pipe."""
        conn = w.results
        if conn is None:
            return
        n = 0
        try:
            while conn.poll() and (limit is None or n < limit):
                self._handle(conn.recv())
                n += 1
        except (EOFError, OSError):
            # The worker exited, perhaps mid-message: nothing more will
            # arrive.  _check_workers writes off its unfinished tasks.
            conn.close()
            w.results = None

    def _teardown(self) -> None:
        for run in list(self._active.values()):
            run.finalized = True
            run.errors.append(SchedulerError(
                "worker pool shut down before run completed"))
            self._finish_run(run)
        self._ready.clear()
        for w in self._workers:
            if w.alive:
                w.outq.put(("stop",))
            w.outq.put(None)

    def _begin_run(self, run: EngineRun) -> None:
        if run.n_tasks == 0:
            run.finalized = True
            self._finish_run(run)
            return
        run.eligible = {w.wid for w in self._workers if w.alive}
        self._active[run.rid] = run
        if not run.eligible:                 # pragma: no cover
            self._fail_run(run, SchedulerError(
                "no live worker processes"), count_task=False)
            return
        payload = self._begin_payload(run)
        for w in self._workers:
            if w.wid in run.eligible:
                w.outq.put(("begin", run.rid, payload))
        base = run.order_base
        for t in run.graph.tasks:
            if t.n_deps == 0:
                self._ready.push(t, run, base)

    def _begin_payload(self, run: EngineRun) -> dict:
        ws = self.workspace
        ctx = run.ctx
        # Strip parent-only machinery: telemetry stays parent-side (task
        # timings come back in "done" messages), injectors run at
        # dispatch, post-mortem bundles are written by the session.
        opts = run.opts.with_(telemetry=None, fault_injection=None,
                              postmortem_dir=None)
        payload = {"d": ctx.d_in, "e": ctx.e_in, "subset": ctx.subset,
                   "opts": opts,
                   "D": (ws.name_of(ctx.D), ctx.D.shape),
                   "S": (ws.name_of(ctx.S), ctx.S.shape),
                   "P": (ws.name_of(ctx.P), ctx.P.shape),
                   "Pws": (ws.name_of(ctx.Pws), ctx.Pws.shape)}
        if ctx.V is not None:                # jobz='V' eigenvector buffers
            payload["V"] = (ws.name_of(ctx.V), ctx.V.shape)
            payload["Vws"] = (ws.name_of(ctx.Vws), ctx.Vws.shape)
        return payload

    def _pick_worker(self, run: EngineRun) -> Optional[_Worker]:
        best = None
        for w in self._workers:
            if (w.alive and w.wid in run.eligible and w.load < _PREFETCH
                    and (best is None or w.load < best.load)):
                best = w
        return best

    def _dispatch_ready(self) -> None:
        ready = self._ready
        free = sum(1 for w in self._workers
                   if w.alive and w.load < _PREFETCH)
        blocked: list[tuple] = []
        while len(ready) and free > 0:
            task, run = ready.pop()
            if self._active.get(run.rid) is not run or run.finalized:
                continue                      # stale entry of a dead run
            w = self._pick_worker(run)
            if w is None:
                blocked.append((task, run))
                if len(blocked) >= 64:
                    break
                continue
            inj = run.injector
            if inj is not None:
                try:
                    inj.maybe_fail(task)
                except Exception as exc:
                    self._record_task_fail(run, task, -1, exc)
                    continue
            w.outq.put(("task", run.rid, task.seq))
            w.load += 1
            if w.load >= _PREFETCH:
                free -= 1
            run.outstanding[task.seq] = (w.wid, w.epoch)
        for task, run in blocked:
            ready.push(task, run, run.order_base)

    # -- message handling ------------------------------------------------
    def _handle(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "done":
            self._on_task_done(*msg[1:])
        elif kind == "fail":
            self._on_task_fail(*msg[1:])
        elif kind == "bounce":
            self._on_bounce(*msg[1:])
        elif kind == "beginfail":
            self._on_begin_fail(*msg[1:])
        # "ready": nothing to do.

    def _credit_worker(self, wid: int, epoch: int) -> None:
        w = self._workers[wid]
        if w.epoch == epoch:
            w.load = max(0, w.load - 1)

    def _on_task_done(self, wid, rid, seq, t0, t1, blob) -> None:
        run = self._active.get(rid)
        if run is None:
            return
        entry = run.outstanding.pop(seq, None)
        if entry is None:
            return                           # already written off (crash)
        self._credit_worker(*entry)
        task = run.graph.tasks[seq]
        if run.finalized:
            self._reap_orphan_segment(task, blob)
            run.remaining -= 1
            run.n_executed += 1
            if not run.outstanding:
                self._finish_run(run)
            return
        if blob is not None:
            try:
                data = pickle.loads(blob)
                _apply_delta(task, data, self.workspace.adopt)
                self._parent_obs(run, task)
            except Exception as exc:
                self._record_task_fail(run, task, wid, exc)
                return
            for ow in self._workers:
                if (ow.wid != wid and ow.alive
                        and ow.wid in run.eligible):
                    ow.outq.put(("delta", rid, seq, blob))
        epilogue = parent_epilogue(task)
        if epilogue is not None:
            # Parent-owned fallback countdown (e.g. the eigenvector
            # writers' ``_writer_done``): the last writer of a
            # secular-failed merge triggers the STEQR fallback here, with
            # exclusive access (successors are not yet dispatched).
            epilogue()
        task.mark_done()
        run.events.append(TraceEvent(task.uid, task.name, wid,
                                     t0 - run.t0, t1 - run.t0, task.tag,
                                     task.priority, task.seq))
        base = run.order_base
        for s in run.release(task):
            self._ready.push(s, run, base)
        run.remaining -= 1
        run.n_executed += 1
        if run.remaining == 0 and not run.outstanding:
            run.finalized = True
            self._finish_run(run)

    def _on_task_fail(self, wid, rid, seq, enc) -> None:
        run = self._active.get(rid)
        if run is None:
            return
        entry = run.outstanding.pop(seq, None)
        if entry is None:
            return
        self._credit_worker(*entry)
        task = run.graph.tasks[seq]
        if run.finalized:
            run.remaining -= 1
            run.n_executed += 1
            if not run.outstanding:
                self._finish_run(run)
            return
        if wid not in run.eligible:
            # The worker's replica never initialized ("beginfail" raced
            # ahead of tasks already in its pipe): not a real failure —
            # requeue on the surviving workers.
            self._ready.push(task, run, run.order_base)
            return
        self._record_task_fail(run, task, wid, _decode_exc(enc))

    def _on_bounce(self, wid, rid, seq) -> None:
        run = self._active.get(rid)
        if run is None:
            return
        entry = run.outstanding.pop(seq, None)
        if entry is None:
            return
        self._credit_worker(*entry)
        if run.finalized:
            if not run.outstanding:
                self._finish_run(run)
            return
        self._ready.push(run.graph.tasks[seq], run, run.order_base)

    def _on_begin_fail(self, wid, rid, enc) -> None:
        run = self._active.get(rid)
        if run is None:
            return
        run.eligible.discard(wid)
        if not run.eligible and not run.finalized:
            exc = _decode_exc(enc)
            self._fail_run(run, SchedulerError(
                f"no worker process could initialize the run: {exc}"),
                count_task=False)

    # -- failure paths ---------------------------------------------------
    def _record_task_fail(self, run: EngineRun, task, wid: int,
                          exc: BaseException) -> None:
        """``wid`` is -1 for a dispatch-time (injected) failure."""
        self._fail_run(run, ExecutionCore.task_failed(
            task, exc, worker=None if wid < 0 else wid))

    def _fail_run(self, run: EngineRun, failure: BaseException,
                  count_task: bool = True) -> None:
        """First failure cancels the run; queued tasks drain as no-ops
        and completion waits until no dispatched task is in flight."""
        run.finalized = True
        run.errors.append(failure)
        if count_task:
            run.remaining -= 1
            run.n_executed += 1
        if not run.outstanding:
            self._finish_run(run)

    def _check_workers(self) -> None:
        for w in self._workers:
            if not w.alive or w.proc.is_alive():
                continue
            w.alive = False
            w.outq.put(None)                  # stop the sender thread
            # Count what it finished before dying; the rest is lost.
            self._drain(w)
            exitcode = w.proc.exitcode
            for run in list(self._active.values()):
                run.eligible.discard(w.wid)
                lost = [seq for seq, (owid, oep) in run.outstanding.items()
                        if owid == w.wid and oep == w.epoch]
                for seq in lost:
                    run.outstanding.pop(seq, None)
                if lost and not run.finalized:
                    task = run.graph.tasks[lost[0]]
                    self._record_task_fail(run, task, w.wid, TaskFailure(
                        f"worker process {w.wid} died (exit code "
                        f"{exitcode}) while executing task {task.name!r} "
                        f"(seq {lost[0]})", task_name=task.name,
                        seq=lost[0], tag=task.tag, worker=w.wid))
                    # _record_task_fail accounted for lost[0].
                    for seq in lost[1:]:
                        run.remaining -= 1
                        run.n_executed += 1
                elif lost:
                    for seq in lost:
                        run.remaining -= 1
                        run.n_executed += 1
                elif (not run.finalized and not run.eligible
                        and run.remaining > 0):
                    self._fail_run(run, SchedulerError(
                        "all worker processes assigned to this run died"),
                        count_task=False)
                    continue
                if run.finalized and not run.outstanding \
                        and not run._done_event.is_set():
                    self._finish_run(run)
            if not self._shutdown:
                # Replacement workers serve runs submitted after the
                # respawn; existing runs keep their surviving set.
                self._workers[w.wid] = self._spawn(w.wid)

    def _reap_orphan_segment(self, task, blob) -> None:
        """Unlink the X segment of a deflation delta drained after its
        run already failed (nobody will adopt it)."""
        if blob is None or getattr(task.func, "__name__", "") \
                != "t_compute_deflation":
            return
        try:
            name = pickle.loads(blob).get("x")
            if name:
                shm = shared_memory.SharedMemory(name=name)
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
        except Exception:                    # pragma: no cover
            pass

    # -- parent-side telemetry -------------------------------------------
    def _parent_obs(self, run: EngineRun, task) -> None:
        """Re-emit the deflation metrics the kernel would have recorded
        (child replicas run with telemetry stripped)."""
        if getattr(task.func, "__name__", "") != "t_compute_deflation":
            return
        st = task.func.__self__
        ctx = st.ctx
        obs = ctx.obs
        if not obs.enabled:
            return
        defl = st.defl
        n_rot = len(defl.rotations)
        obs.observe("merge.deflation_ratio", defl.deflation_ratio)
        obs.observe("merge.deflation_ratio.givens", n_rot / defl.n)
        obs.observe("merge.deflation_ratio.smallz",
                    (defl.n_deflated - n_rot) / defl.n)
        obs.observe_many("merge.givens_chain_len",
                         (len(c) for c in st.chains))
        obs.add("merge.rotations", n_rot)
        obs.add("merge.count")
        obs.gauge_max("workspace.x_block_bytes", 8 * st.X.size)
        if st.n == ctx.n:
            from ..analysis.memory import solve_high_water_bytes
            obs.gauge_max("workspace.high_water_bytes",
                          solve_high_water_bytes(
                              ctx.n, defl.k, ctx.opts.extra_workspace,
                              jobz=ctx.opts.jobz))

    # -- completion ------------------------------------------------------
    def _finish_run(self, run: EngineRun) -> None:
        """Pool bookkeeping, then the engine's single emission point."""
        self._active.pop(run.rid, None)
        self.runs_completed += 1
        for w in self._workers:
            if w.wid in run.eligible and w.alive:
                w.outq.put(("end", run.rid))
        run.finish(self.n_workers, self._worker_names)

    # -- introspection (health endpoint / session stats) -----------------
    @property
    def parked(self) -> int:
        """Workers with nothing dispatched to them right now."""
        return sum(1 for w in self._workers if w.alive and w.load == 0)

    @property
    def workers_alive(self) -> int:
        return sum(1 for w in self._workers if w.proc.is_alive())

    @property
    def closed(self) -> bool:
        return self._shutdown
