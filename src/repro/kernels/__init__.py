"""LAPACK-equivalent numerical kernels, implemented from scratch.

The D&C leaves are the exception: ``STEDC`` leaf tasks call LAPACK
``dsyevd`` through ``numpy.linalg.eigh`` (``DCContext.eigh_block``), as
the paper's leaves and LAPACK's own ``dlaed0`` call STEQR.

================  ==========================  ===========================
Module            LAPACK analogue             Role in the D&C solver
================  ==========================  ===========================
``scaling``       DLANST / DLASCL             Scale T / Scale back tasks
``givens``        DLARTG / DROT               rotations (deflation, QR)
``steqr``         DSTEQR (EISPACK tql2)       QR-iteration baseline only
``secular``       DLAED4                      per-panel ``LAED4`` tasks
``deflation``     DLAED2                      ``Compute_deflation`` task
``stabilize``     DLAED3/DLAED9               ``ComputeLocalW``/``ReduceW``
``strips``        (no analogue)               boundary-row ``jobz='N'`` path
``householder``   DSYTRD / DORMTR             dense pipeline (Eqs. 1–3)
================  ==========================  ===========================
"""

from .scaling import lanst, scale_tridiagonal, ScaleInfo
from .givens import lartg, rot, lapy2
from .steqr import steqr
from .secular import (SecularRoots, solve_secular, secular_function,
                      delta_matrix, eigenvalues_from_roots)
from .deflation import DeflationResult, GivensRotation, deflate, rotation_chains
from .stabilize import local_w_product, reduce_w, eigenvector_columns
from .strips import (stack_boundary_rows, rotate_strip_columns,
                     permute_strip, strip_row_products)
from .householder import Tridiagonalization, tridiagonalize, apply_q
from .bidiagonalize import Bidiagonalization, bidiagonalize, apply_ql, apply_qr
from .band import (dense_to_band, band_to_tridiagonal,
                   two_stage_tridiagonalize, bandwidth_of)

__all__ = [
    "lanst", "scale_tridiagonal", "ScaleInfo",
    "lartg", "rot", "lapy2",
    "steqr",
    "SecularRoots", "solve_secular", "secular_function", "delta_matrix",
    "eigenvalues_from_roots",
    "DeflationResult", "GivensRotation", "deflate", "rotation_chains",
    "local_w_product", "reduce_w", "eigenvector_columns",
    "stack_boundary_rows", "rotate_strip_columns", "permute_strip",
    "strip_row_products",
    "Tridiagonalization", "tridiagonalize", "apply_q",
    "Bidiagonalization", "bidiagonalize", "apply_ql", "apply_qr",
    "dense_to_band", "band_to_tridiagonal", "two_stage_tridiagonalize",
    "bandwidth_of",
]
