"""Operation-count analysis: the paper's Table I and Eq. 8.

``merge_step_costs`` evaluates the Θ-model of Table I for one merge;
``worst_case_flops`` is Eq. 8 (no deflation: 4n³/3 + Θ(n²), dominated by
the final merge's ≈ n³); ``measured_merge_flops`` extracts the actual
flop counts from a solve's per-merge statistics so the benches can set
the model against measurement.
"""

from __future__ import annotations

import numpy as np

from ..core.merge import MergeStats

__all__ = ["merge_step_costs", "worst_case_flops", "total_merge_flops",
           "deflation_summary"]


def merge_step_costs(n: int, k: int) -> dict[str, float]:
    """Table I: cost of the merge operations for size n, k non-deflated.

    Values are in "operations" of the Θ-model (constants chosen to match
    the implementation's cost callables).
    """
    return {
        "Compute the number of deflated eigenvalues": float(n),          # Θ(n)
        "Permute eigenvectors (copy)": float(n) * n,                     # Θ(n²)
        "Solve the secular equation": float(k) * k,                      # Θ(k²)
        "Compute stabilization values": float(k) * k,                    # Θ(k²)
        "Permute eigenvectors (copy-back)": float(n) * (n - k),          # Θ(n(n−k))
        "Compute eigenvectors X of R": float(k) * k,                     # Θ(k²)
        "Compute eigenvectors V = V~X": float(n) * k * k,                # Θ(nk²)
    }


def worst_case_flops(n: int) -> float:
    """Eq. 8: Σ_i n³/2^{2i} = 4n³/3 + Θ(n²) when nothing deflates."""
    return 4.0 * n ** 3 / 3.0


def total_merge_flops(stats: list[MergeStats]) -> float:
    """GEMM-dominated flop count of a solve from its per-merge stats."""
    total = 0.0
    for s in stats:
        # Structured UpdateVect: the two half-height GEMMs do ≈ n·k²
        # flops in the no-rotation case (k1 ≈ k3 ≈ k/2) — this is why
        # Eq. 8 counts the final no-deflation merge as "about n³".
        total += s.n * s.k * s.k
        total += 10.0 * s.k * s.k             # secular + stabilization
    return total


def deflation_summary(stats: list[MergeStats]) -> dict[str, float]:
    if not stats:
        return {"mean_deflation": 0.0, "final_deflation": 0.0,
                "total_secular_sweeps": 0}
    return {
        "mean_deflation": float(np.mean([s.deflation_ratio for s in stats])),
        "final_deflation": stats[-1].deflation_ratio,
        "total_secular_sweeps": int(sum(s.secular_sweeps for s in stats)),
    }
