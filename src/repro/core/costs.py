"""Abstract cost model of every D&C kernel (paper Table I).

Each function returns a :class:`~repro.runtime.task.TaskCost` from the
*actual* runtime sizes (n, k, panel width, deflation counts), so the
discrete-event simulator charges matrix-dependent work on a
matrix-independent DAG — exactly the paper's design.  The same numbers
feed the Table I verification benchmark.

Cost conventions: one fused multiply-add counts as 2 flops; copies count
read+write bytes (16 per double moved).
"""

from __future__ import annotations

import math

from ..runtime.task import TaskCost

__all__ = [
    "cost_compute_deflation", "cost_apply_givens", "cost_permute",
    "cost_laed4", "cost_local_w", "cost_reduce_w", "cost_copyback",
    "cost_compute_vect", "cost_update_vect", "cost_stedc", "cost_laset",
    "cost_sort", "cost_scale", "cost_strip_rotate", "cost_strip_permute",
    "cost_strip_update", "cost_update_eig",
]

#: Mean LAED4 iterations per secular root, charged by :func:`cost_laed4`
#: and by the adaptive-nb cost floor.
SECULAR_SWEEPS = 10.0


def cost_compute_deflation(n: int) -> TaskCost:
    """Θ(n) scan + O(n log n) merge sort; trivially cheap (paper: <1%)."""
    lg = math.log2(n) if n > 1 else 1.0
    return TaskCost(flops=12.0 * n, bytes_moved=8.0 * n * (2.0 + lg))


def cost_apply_givens(n_node: int, n_rot: int) -> TaskCost:
    """Eager deflating rotations: 6 flops per element pair."""
    return TaskCost(flops=6.0 * n_node * n_rot,
                    bytes_moved=24.0 * n_node * n_rot)


def cost_permute(rows_moved: float) -> TaskCost:
    """Pure copy of ``rows_moved`` doubles (Θ(n·m) of Table I)."""
    return TaskCost(bytes_moved=16.0 * rows_moved)


def cost_laed4(k: int, m: int) -> TaskCost:
    """Secular solve for m roots against k poles: Θ(k·m) per sweep."""
    return TaskCost(flops=6.0 * SECULAR_SWEEPS * k * m)


def cost_local_w(k: int, m: int) -> TaskCost:
    """Partial stabilization products: Θ(k·m) (Table I: Θ(k²) total)."""
    return TaskCost(flops=6.0 * k * m)


def cost_reduce_w(k: int, n_panels: int) -> TaskCost:
    return TaskCost(flops=2.0 * k * max(1, n_panels))


def cost_copyback(rows_moved: float) -> TaskCost:
    """Copy-back of deflated vectors (Θ(n(n−k)) of Table I)."""
    return TaskCost(bytes_moved=16.0 * rows_moved)


def cost_compute_vect(k: int, m: int) -> TaskCost:
    """Secular eigenvector block: divide + normalize, Θ(k·m)."""
    return TaskCost(flops=5.0 * k * m)


def cost_update_vect(n1: int, n2: int, k12: int, k23: int, m: int) -> TaskCost:
    """Structured GEMM of the merge (Θ(n·k²) total over panels)."""
    return TaskCost(flops=2.0 * m * (n1 * k12 + n2 * k23))


def cost_strip_rotate(n_node: int, n_rot: float) -> TaskCost:
    """GivensStrip: stack the 2×n_node strip + 6 flops per rotated
    2-vector pair (two rows instead of n_node)."""
    return TaskCost(flops=12.0 * n_rot, bytes_moved=32.0 * n_node)


def cost_strip_permute(n_node: int) -> TaskCost:
    """PermuteStrip: gather 2·n_node doubles."""
    return TaskCost(bytes_moved=32.0 * n_node)


def cost_strip_update(k: int, m: int) -> TaskCost:
    """UpdateStrip: transient secular columns (Θ(k·m), as ComputeVect)
    plus the two row·X products (4 flops per element)."""
    return TaskCost(flops=9.0 * k * m)


def cost_update_eig(m: int) -> TaskCost:
    """UpdateEig: eigenvalue writes of one root panel (pure copy)."""
    return TaskCost(bytes_moved=16.0 * m)


def cost_stedc(m: int) -> TaskCost:
    """Leaf QR iteration with eigenvectors: ≈ 9 m³ flops."""
    return TaskCost(flops=9.0 * m ** 3)


def cost_laset(rows: int, cols: int) -> TaskCost:
    return TaskCost(bytes_moved=8.0 * rows * cols)


def cost_sort(rows: int, cols: int) -> TaskCost:
    return TaskCost(bytes_moved=16.0 * rows * cols)


def cost_scale(n: int) -> TaskCost:
    return TaskCost(flops=2.0 * n, bytes_moved=16.0 * n)
