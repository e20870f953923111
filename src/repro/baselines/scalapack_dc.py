"""ScaLAPACK-style distributed D&C baseline (``pdstedc`` model).

The paper's Fig. 7 compares against MKL ScaLAPACK run with 16 MPI
processes on the same node.  ScaLAPACK's D&C differs from LAPACK's in
exactly the ways the paper describes:

* independent subproblems ARE solved in parallel across ranks;
* the merge GEMM and secular equation are distributed over the ranks
  that own the node's columns;
* but every merge pays explicit communication — broadcasting the rank-one
  vector z, exchanging eigenvector panels between processes (the "data
  copies required for exchanges between NUMA nodes") — and the tree
  levels are synchronized.

This module models that execution analytically: the real solver runs
once (sequentially) to obtain the true per-merge deflation data, then a
level-by-level α–β performance model derives the distributed makespan
on the same virtual :class:`Machine` the task-flow simulator uses.
Numerically ``scalapack_dc_eigh`` returns the identical D&C result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.options import DCOptions
from ..core.solver import dc_eigh
from ..runtime.simulator import Machine

__all__ = ["scalapack_dc_eigh", "scalapack_dc_makespan", "CommModel"]


@dataclass(frozen=True)
class CommModel:
    """α–β communication model for intra-node MPI.

    ``alpha`` per-message latency (s); ``beta`` per-byte transfer time.
    Shared-memory MPI moves every byte at least twice (send buffer →
    shared segment → receive buffer) with all ranks contending for the
    same memory controllers, so the effective per-rank exchange
    bandwidth is far below a single core's streaming rate — this is the
    paper's "data copies required for exchanges between NUMA nodes".
    ``gemm_efficiency`` derates the distributed GEMM for block-cyclic
    edge effects and the row/column broadcasts inside pdgemm.
    """

    alpha: float = 5e-6
    beta: float = 1.0 / 1.0e9
    gemm_efficiency: float = 0.6


def scalapack_dc_eigh(d: np.ndarray, e: np.ndarray, *,
                      options: Optional[DCOptions] = None,
                      full_result: bool = False):
    """Numerical result of the distributed D&C (identical to dc_eigh)."""
    return dc_eigh(d, e, options=options, full_result=full_result)


def scalapack_dc_makespan(d: np.ndarray, e: np.ndarray, *,
                          n_ranks: int = 16,
                          machine: Optional[Machine] = None,
                          comm: Optional[CommModel] = None,
                          options: Optional[DCOptions] = None) -> float:
    """Modelled pdstedc runtime on ``n_ranks`` processes.

    Walks the merge tree level by level (levels are synchronized in
    pdstedc) charging distributed compute plus α–β communication, using
    the *measured* deflation of each merge.
    """
    m = machine or Machine()
    c = comm or CommModel()
    opts = options or DCOptions()
    res = dc_eigh(d, e, options=opts, full_result=True)
    tree = res.info.tree
    states = res.info.states
    n = len(d)

    flop_gemm = m.core_gflops * 1e9
    flop_kern = flop_gemm * m.kernel_efficiency

    total = 0.0
    # Leaf level: leaves list-scheduled onto ranks, QR iteration each.
    leaf_costs = sorted((9.0 * l.n ** 3 / flop_kern
                         for l in tree.leaves()), reverse=True)
    loads = [0.0] * n_ranks
    for t in leaf_costs:
        loads[loads.index(min(loads))] += t
    total += max(loads)

    for level in tree.merges_by_level():
        t_level = 0.0
        for node in level:
            st = states[(node.lo, node.hi)]
            nn = st.n
            k = st.k
            k1, k2, _ = st.defl.ctot
            k12, k23 = k1 + k2, k - k1
            # Ranks cooperating on this merge (proportional share).
            r = max(1, round(n_ranks * nn / n))
            # Sequential deflation on the owning rank + z broadcast.
            t = 12.0 * nn / flop_kern
            t += (c.alpha + 8.0 * nn * c.beta) * math.ceil(math.log2(r + 1))
            # Distributed secular solve + stabilization (k work over r,
            # with the usual block-cyclic load imbalance).
            t += 1.5 * (6.0 * 10.0 * k * k / r) / flop_kern
            t += 1.5 * (6.0 * k * k / r) / flop_kern
            # Permutation becomes an all-to-all exchange of vector
            # panels through MPI shared memory (the dominant cost the
            # paper attributes to pdstedc on high-deflation matrices).
            t += c.alpha * r + (8.0 * nn * nn / r) * c.beta
            # Distributed GEMM (pdgemm: broadcasts + edge blocks).
            t += 2.0 * k * (st.n1 * k12 + (nn - st.n1) * k23) / r \
                / (flop_gemm * c.gemm_efficiency)
            # Copy-back of deflated vectors also crosses process
            # boundaries in the block-cyclic layout.
            t += (8.0 * nn * (nn - k) / r) * c.beta
            # Per-merge synchronization (pdstedc's internal collectives).
            t += 6.0 * (c.alpha * math.ceil(math.log2(r + 1)))
            t_level = max(t_level, t)
        total += t_level

    # Final sort + redistribution of the eigenvector matrix.
    total += c.alpha * n_ranks + (8.0 * n * n / n_ranks) * c.beta
    return total
