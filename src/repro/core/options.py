"""Tuning options of the task-flow D&C solver (paper Sec. IV)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from .costs import SECULAR_SWEEPS

#: Adaptive-nb policy constants: spine levels aim for ``OVERSUB x
#: workers`` panels across the level; no panel narrower than 16 columns
#: or ``OVERHEAD_RATIO`` per-task dispatch costs of work.  OVERSUB = 3
#: won a sweep over {2..8} on the simulated 16-core machine at the
#: Fig-6 sizes (n >= 2500): enough slack to keep the ready queue
#: fed and the panel tails balanced (2 starves the work-bound shapes;
#: 4+ drowns the overhead-bound ones in dispatch cost).
_ADAPTIVE_OVERSUB = 3
_ADAPTIVE_MIN_NB = 16
_ADAPTIVE_OVERHEAD_RATIO = 20

#: Rates behind the adaptive cost floor: vectorized elementwise kernels
#: at ~4 Gflop/s, BLAS-3 GEMM at ~40 Gflop/s, and ~15 us of runtime
#: dispatch per task (the wall-clock ledger measures 13-22 us per no-op
#: task on two workers).  Fixed constants rather than host probes, so
#: the adaptive panel plan — part of the DAG shape, and so of the bits —
#: is the same on every machine.
_FLOP_RATE = 4.0e9
_GEMM_FLOP_RATE = 40.0e9
TASK_OVERHEAD_S = 15.0e-6


@dataclass(frozen=True)
class DCOptions:
    """Knobs of the task-flow Divide & Conquer eigensolver.

    ``jobz``
        Compute mode, after LAPACK's ``jobz`` argument.  ``"V"``
        (default) computes eigenvalues and eigenvectors — bitwise
        identical to the historical pipeline.  ``"N"`` computes
        eigenvalues only: the graph builder emits a reduced kernel set
        in which the O(n³) eigenvector machinery (``UpdateVect`` GEMMs,
        ``PermuteV``, ``CopyBackDeflated``, full ``ComputeVect``) is
        replaced by O(k)-per-panel boundary-row *strip* kernels
        (``GivensStrip``/``PermuteStrip``/``UpdateStrip``) that carry
        only the 2 boundary rows of each subproblem's eigenvector
        matrix through the merge tree — enough to form every level's
        rank-one z — so per-solve auxiliary memory drops from O(n²) to
        O(n).  Eigenvalues are bitwise identical between the modes;
        ``result()``/``dc_eigh`` return ``V = None`` in ``"N"`` mode.
    ``minpart``
        Maximal size of a leaf subproblem (the paper's "minimal partition
        size"; 300 in the Fig. 2 example, LAPACK uses 25).  Leaves are
        solved by QR iteration (``STEDC`` tasks).
    ``nb``
        Panel width: every merge kernel is split into tasks of at most
        ``nb`` eigenvector columns.  Smaller nb → more parallelism,
        more scheduling overhead (the tuning trade-off of Sec. IV).
        ``None`` (default) auto-tunes to ``clamp(n // 64, 32, 256)`` so
        the root merge always exposes enough panels for the cores.
    ``extra_workspace``
        The paper's user option: with extra workspace, ``LAED4`` may
        overlap the ``PermuteV`` copies and ``ComputeVect`` may overlap
        ``CopyBackDeflated``; without it they serialize on the shared
        buffer.  Only scheduling freedom changes, never the numbers.
    ``level_barrier``
        When True, a synchronization barrier is inserted between levels
        of the merge tree (the *un*-optimized variant of Fig. 3(b); the
        paper's contribution removes it — Fig. 3(c)).
    ``fork_join``
        When True, only ``UpdateVect`` (the GEMM) is parallel and all
        other kernels run as a sequential stream — the multithreaded-BLAS
        model of MKL LAPACK (Fig. 3(a)).  Implies ``level_barrier``.
    ``deflation_tol_factor``
        Multiplier of machine epsilon in the deflation test (LAPACK: 8).
    ``reuse_graph``
        Consult the process-wide DAG template cache: the task graph is
        matrix independent (Sec. IV), so repeated solves of the same
        (n, nb, minpart, variant) shape skip ``build_tree`` +
        ``submit_dc`` and only rebind fresh per-solve state onto the
        cached task/dependency skeleton.  Numerics never change.
    ``fault_injection``
        Optional :class:`~repro.runtime.faults.FaultSpec` — a
        deterministic test hook that makes the selected task(s) raise
        :class:`~repro.errors.InjectedFault` at execution time (fail
        task N / kernel name / probability with seed), exercising the
        cancellation and error-propagation paths.  ``None`` (default)
        adds no work to the hot path.
    ``adaptive_nb``
        When True (and ``nb`` is None), the panel width is chosen per
        merge level instead of globally: merges deep in the tree, where
        sibling subproblems already saturate the workers, get one full
        panel (fewer tasks, less dispatch overhead); merges on the
        spine split into enough panels to feed the workers, never
        narrower than the cost floor (panel work at least
        ``_ADAPTIVE_OVERHEAD_RATIO`` x the per-task dispatch cost).
        Default False: panel boundaries change the association of the
        ``ReduceW`` partial products (last-ulp differences), so the
        default stays bitwise identical to the historical global width.
        An explicit ``nb`` always wins.
    ``target_parallelism``
        Worker count the adaptive-nb policy plans for.  ``None`` plans
        for 16 (the paper's machine).  Deliberately *not* auto-filled
        from the executing backend's worker count: the planned width is
        part of the DAG shape, and panel boundaries carry last-ulp
        differences, so it must be an explicit knob for results to stay
        bitwise identical across backends.
    ``postmortem_dir``
        Directory for automatic crash bundles.  When set (or when the
        ``REPRO_POSTMORTEM_DIR`` environment variable is), a session
        solve that fails (``TaskFailure``/``ConvergenceError``/...) or
        degrades to the STEQR fallback dumps a JSONL post-mortem — that
        solve's own trace (the tasks that completed), this options
        record, the fault spec, and pool/workspace stats — via
        :func:`repro.obs.live.write_postmortem`.  ``None`` (default)
        writes nothing; numerics are unaffected either way.
    """

    jobz: str = "V"
    minpart: int = 64
    nb: int | None = None
    extra_workspace: bool = True
    level_barrier: bool = False
    fork_join: bool = False
    deflation_tol_factor: float = 8.0
    reuse_graph: bool = False
    fault_injection: Any = None
    adaptive_nb: bool = False
    target_parallelism: int | None = None
    postmortem_dir: str | None = None

    def __post_init__(self) -> None:
        if self.jobz not in ("V", "N"):
            raise ValueError(f"jobz must be 'V' or 'N', got {self.jobz!r}")
        if self.minpart < 1:
            raise ValueError("minpart must be >= 1")
        if self.nb is not None and self.nb < 1:
            raise ValueError("nb must be >= 1")
        if self.target_parallelism is not None and self.target_parallelism < 1:
            raise ValueError("target_parallelism must be >= 1")

    def effective_nb(self, n: int) -> int:
        """Global panel width used for a problem of size ``n``."""
        if self.nb is not None:
            return self.nb
        return min(256, max(32, n // 64))

    def resolved_parallelism(self) -> int:
        """Worker count the scheduling layer plans for."""
        return self.target_parallelism if self.target_parallelism else 16

    def node_nb(self, node_n: int, n: int) -> int:
        """Panel width for one merge node of size ``node_n`` in a
        problem of size ``n``.

        With ``adaptive_nb`` off (or an explicit ``nb``) this is the
        global :meth:`effective_nb`.  Adaptive mode implements the
        level policy: a level with at least ``resolved_parallelism()``
        concurrent merges gets one full-width panel per merge; spine
        levels split into ``_ADAPTIVE_OVERSUB x workers / concurrent``
        panels, clamped below by the cost floor so no panel task is
        smaller than ``_ADAPTIVE_OVERHEAD_RATIO`` dispatch overheads of
        work.
        """
        if self.nb is not None or not self.adaptive_nb:
            return self.effective_nb(n)
        node_n = max(1, node_n)
        w = self.resolved_parallelism()
        concurrent = max(1, n // node_n)
        if concurrent >= w:
            return node_n
        want = -(-_ADAPTIVE_OVERSUB * w // concurrent)  # ceil division
        nb = -(-node_n // min(want, node_n))
        floor = min(node_n, max(_ADAPTIVE_MIN_NB, self._nb_cost_floor(node_n)))
        return max(floor, nb)

    def _nb_cost_floor(self, node_n: int) -> int:
        """Smallest panel width whose per-panel work still dwarfs the
        per-task dispatch cost."""
        # Per-column work of the merge panel pipeline at zero deflation
        # (k = node_n): the UpdateVect GEMM column plus the secular /
        # stabilization Theta(k) kernels.
        per_col_s = (float(node_n) * node_n / _GEMM_FLOP_RATE
                     + 6.0 * (SECULAR_SWEEPS + 2.0) * node_n / _FLOP_RATE)
        want_s = _ADAPTIVE_OVERHEAD_RATIO * TASK_OVERHEAD_S
        return max(1, math.ceil(want_s / per_col_s))

    def with_(self, **kwargs) -> "DCOptions":
        return replace(self, **kwargs)


#: Scheduler configurations of the paper's Fig. 3 trace study.
FIG3_CONFIGS = {
    "sequential": DCOptions(fork_join=True, level_barrier=True, nb=1 << 30),
    "parallel-gemm": DCOptions(fork_join=True, level_barrier=True),
    "parallel-merge": DCOptions(level_barrier=True),
    "full-taskflow": DCOptions(),
}
