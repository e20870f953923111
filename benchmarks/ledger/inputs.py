"""Seeded Table III inputs for the ledger, cached on disk.

A matrix is the Table III spectrum of its type
(``repro.matrices.spectrum_of_type``) under the same Haar-random
orthogonal similarity ``repro.matrices.test_matrix`` applies
(``default_rng(seed + type)``), reduced back to tridiagonal form with
LAPACK ``dsytrd``.  ``test_matrix`` reduces with the repository's
pure-Python Householder kernel, which takes about 15 s at n=2000; the
LAPACK reduction takes about 2 s, and every benchmark run with a new
seed pays it once.  The spectrum and the similarity are the same, so
deflation behaviour is that of the paper's matrix type.

Generated inputs are cached under ``.cache/`` next to this file, keyed
by (type, n, seed).  Generation time is reported but never enters a
metric.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
from scipy.linalg import lapack

from repro.matrices import spectrum_of_type

CACHE_DIR = Path(__file__).resolve().parent / ".cache"


def _generate(mtype: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    lam = spectrum_of_type(mtype, n, seed=seed)
    rng = np.random.default_rng(seed + mtype)
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q *= np.sign(np.diag(r))[None, :]          # Haar correction
    a = (q * lam[None, :]) @ q.T
    a = 0.5 * (a + a.T)
    _, d, e, _, info = lapack.dsytrd(a, lower=1)
    if info != 0:
        raise RuntimeError(f"dsytrd failed with info={info}")
    return np.ascontiguousarray(d), np.ascontiguousarray(e)


def tridiagonal(mtype: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(d, e)`` of the Table III matrix ``mtype`` of order ``n``."""
    path = CACHE_DIR / f"t{mtype}_n{n}_s{seed}.npz"
    if path.exists():
        with np.load(path) as z:
            return z["d"], z["e"]
    d, e = _generate(mtype, n, seed)
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
    np.savez(tmp, d=d, e=e)
    os.replace(tmp, path)
    return d, e


def problems(mtype: int, n: int, seeds) -> tuple[list, float]:
    """The inputs for ``seeds`` and the seconds spent producing them."""
    t0 = time.perf_counter()
    out = [tridiagonal(mtype, n, s) for s in seeds]
    return out, time.perf_counter() - t0
