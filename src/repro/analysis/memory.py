"""Workspace accounting (the paper's memory trade-off).

The paper repeatedly weighs D&C's robustness/accuracy against its extra
workspace ("the extra amount of memory required by D&C could be
problematic"), versus MRRR's O(n) footprint.  These estimators report
the peak auxiliary memory of each solver in this implementation so the
trade-off is quantifiable.

The compute mode changes the model class: ``jobz='V'`` carries two n²
buffers plus the secular eigenvector blocks, while ``jobz='N'`` keeps
only the three 2×n boundary-row strips, the O(n) solver vectors and one
transient k×nb secular panel — O(n) total, the same class as MRRR.
"""

from __future__ import annotations

__all__ = ["dc_workspace_bytes", "mrrr_workspace_bytes",
           "solve_high_water_bytes", "workspace_report"]

_D = 8  # bytes per double


def _nb_default(n: int) -> int:
    """Mirror of ``DCOptions.effective_nb`` for shape-only accounting
    (kept dependency-free: analysis must not import core)."""
    return min(256, max(32, n // 64))


def dc_workspace_bytes(n: int, extra_workspace: bool = True,
                       jobz: str = "V") -> int:
    """Peak auxiliary bytes of the task-flow D&C beyond the n² output.

    ``jobz='V'``:

    * permute workspace ``Vws``: n² doubles;
    * secular eigenvector block ``X`` of the active merges: bounded by
      the root's k×k ≤ n² (the children's blocks are freed before the
      root's peak in the sequential schedule; out-of-order overlap can
      add the two (n/2)² penultimate blocks);
    * O(n) vectors (d, z, ẑ, λ, τ, permutations).

    ``jobz='N'`` (no n² output either — eigenvalues only):

    * three 2×n boundary-row strips (S, P, Pws): 6n doubles;
    * the same O(n) solver vectors;
    * one transient k×m secular panel inside ``UpdateStrip``, bounded
      by (n/2)·nb at the penultimate merges.
    """
    if jobz == "N":
        return _D * (18 * n + (n // 2) * _nb_default(n))
    x_peak = n * n + (2 * (n // 2) ** 2 if extra_workspace else 0)
    return _D * (n * n + x_peak + 12 * n)


def solve_high_water_bytes(n: int, k_root: int,
                           extra_workspace: bool = True,
                           jobz: str = "V") -> int:
    """Observed peak auxiliary bytes of one solve.

    Same accounting as :func:`dc_workspace_bytes` but with the root
    merge's *actual* secular rank ``k_root`` (deflation shrinks the
    dominant blocks below the worst case) — the solve's telemetry
    (:func:`repro.obs.solve_metrics`) reports this as
    ``workspace.high_water_bytes``.
    """
    if jobz == "N":
        return _D * (18 * n + min(k_root, n // 2) * _nb_default(n))
    x_peak = k_root * k_root + (2 * (n // 2) ** 2 if extra_workspace else 0)
    return _D * (n * n + x_peak + 12 * n)


def mrrr_workspace_bytes(n: int) -> int:
    """Peak auxiliary bytes of MRRR beyond the n² output: a handful of
    O(n) vectors per representation level (D, L, D⁺, L⁺, s, p, γ...)."""
    return _D * (16 * n)


def workspace_report(n: int) -> str:
    dc = dc_workspace_bytes(n)
    dc_n = dc_workspace_bytes(n, jobz="N")
    mr = mrrr_workspace_bytes(n)
    return (f"n = {n}\n"
            f"eigenvector output : {n * n * _D / 1e6:10.2f} MB (both)\n"
            f"D&C workspace      : {dc / 1e6:10.2f} MB "
            f"({dc / (n * n * _D):.1f}x the output)\n"
            f"MRRR workspace     : {mr / 1e6:10.2f} MB (O(n))\n"
            f"ratio D&C / MRRR   : {dc / mr:10.1f}x\n"
            f"D&C jobz=N         : {dc_n / 1e6:10.2f} MB "
            f"(O(n); {dc / dc_n:.1f}x smaller than jobz=V)")
