"""Eigenvalue-only mode (``jobz='N'``): reduced DAG, bitwise parity.

The mode-parameterized pipeline promises that ``jobz='N'`` runs a
reduced boundary-row-strip DAG with O(n) auxiliary state while
producing *bitwise identical* eigenvalues to the full ``jobz='V'``
solve — both modes source every merge's rank-one z from the same strip
kernels, so the secular spine never sees the difference.  These tests
pin that contract across the Table III matrix types, all three runtime
backends, subsets, sessions/batches, fault injection, the STEQR
fallback, the graph-template cache, and the memory telemetry.
"""

import numpy as np
import pytest

from repro import dc_eigh, dc_eigh_many
from repro.analysis import solve_high_water_bytes
from repro.core import DCOptions, SolverSession
from repro.core.graph_cache import graph_template_cache, template_key
from repro.errors import ConvergenceError, InjectedFault, TaskFailure
from repro.matrices import MATRIX_TYPES
from repro.matrices import test_matrix as table3_matrix
from repro.obs import solve_metrics
from repro.runtime import FaultSpec

N_OPTS = DCOptions(jobz="N")

# Kernels that exist only to build / move eigenvector columns; none may
# appear in an eigenvalue-only DAG.
VECTOR_KERNELS = {"LASET", "ApplyGivens", "PermuteV", "CopyBackDeflated",
                  "ComputeVect", "UpdateVect", "ScaleV"}


def _names(graph):
    return [t.name.split("(")[0] for t in graph.tasks]


# ---------------------------------------------------------------------------
# Options surface
# ---------------------------------------------------------------------------

def test_jobz_validation():
    assert DCOptions().jobz == "V"
    assert DCOptions(jobz="N").jobz == "N"
    with pytest.raises(ValueError):
        DCOptions(jobz="X")
    with pytest.raises(ValueError):
        DCOptions(jobz="n")     # case-sensitive, like LAPACK's dstedc


# ---------------------------------------------------------------------------
# Bitwise parity: all Table III types x all three backends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mtype", MATRIX_TYPES)
def test_eigenvalues_bitwise_all_types(mtype):
    d, e = table3_matrix(mtype, 150, seed=11)
    lam_v, V = dc_eigh(d, e)
    assert V is not None
    for backend, workers in (("sequential", None), ("threads", 4),
                             ("simulated", 4)):
        lam_n, Vn = dc_eigh(d, e, options=N_OPTS, backend=backend,
                            n_workers=workers)
        assert Vn is None
        np.testing.assert_array_equal(lam_v, lam_n)


# ---------------------------------------------------------------------------
# Reduced DAG shape
# ---------------------------------------------------------------------------

def test_reduced_dag_has_no_eigenvector_kernels():
    d, e = table3_matrix(4, 300, seed=3)
    res = dc_eigh(d, e, options=N_OPTS, full_result=True)
    names = _names(res.graph)
    assert not (set(names) & VECTOR_KERNELS)
    assert "UpdateStrip" in names and "UpdateEig" in names
    assert res.V is None
    # The V-mode DAG keeps the eigenvector kernels and (for parity of
    # the z vector) the same strip kernels.
    res_v = dc_eigh(d, e, full_result=True)
    names_v = _names(res_v.graph)
    assert "UpdateVect" in names_v and "GivensStrip" in names_v
    assert len(res.graph.tasks) < len(res_v.graph.tasks)


def test_subset_with_jobz_n():
    d, e = table3_matrix(2, 240, seed=5)
    lam_full, _ = dc_eigh(d, e)
    sub = np.arange(30, 80)
    lam, V = dc_eigh(d, e, options=N_OPTS, subset=sub)
    assert V is None
    np.testing.assert_array_equal(lam, lam_full[sub])


# ---------------------------------------------------------------------------
# Sessions, batches
# ---------------------------------------------------------------------------

def test_batch_and_session_jobz_n():
    problems = [table3_matrix(4, 120, seed=s) for s in range(3)]
    ref = [dc_eigh(d, e)[0] for d, e in problems]
    out = dc_eigh_many(problems, options=N_OPTS, backend="threads",
                       n_workers=2)
    for (lam, V), lam_ref in zip(out, ref):
        assert V is None
        np.testing.assert_array_equal(lam, lam_ref)


def test_session_mixes_modes_and_counts_them():
    d, e = table3_matrix(4, 120, seed=1)
    with SolverSession(backend="sequential") as s:
        lam_v, V = s.solve(d, e)
        lam_n, Vn = s.solve(d, e, options=s.options.with_(jobz="N"))
        metrics = s.metrics.to_dict()
    assert V is not None and Vn is None
    np.testing.assert_array_equal(lam_v, lam_n)
    assert metrics["solves_by_jobz"] == {"V": 1, "N": 1}


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------

def test_fault_injection_in_strip_kernel():
    d, e = table3_matrix(4, 160, seed=2)
    opts = N_OPTS.with_(fault_injection=FaultSpec(kernel="UpdateEig"))
    with pytest.raises(TaskFailure) as ei:
        dc_eigh(d, e, options=opts)
    assert isinstance(ei.value.__cause__, InjectedFault)
    # The mode is recoverable after a failure: a clean solve still works.
    lam, V = dc_eigh(d, e, options=N_OPTS)
    np.testing.assert_array_equal(lam, dc_eigh(d, e)[0])


def test_steqr_fallback_bitwise_parity(monkeypatch):
    def boom(*args, **kwargs):
        raise ConvergenceError("synthetic secular failure")
    monkeypatch.setattr("repro.core.merge.solve_secular", boom)
    d, e = table3_matrix(4, 150, seed=6)
    res_v = dc_eigh(d, e, full_result=True)
    res_n = dc_eigh(d, e, options=N_OPTS, full_result=True)
    assert all(s.fallback for s in res_n.info.ctx.merge_stats)
    assert res_n.V is None
    np.testing.assert_array_equal(res_v.lam, res_n.lam)


# ---------------------------------------------------------------------------
# Graph-template cache
# ---------------------------------------------------------------------------

def test_template_keys_never_collide_across_modes():
    n = 150
    kv = template_key(n, DCOptions())
    kn = template_key(n, N_OPTS)
    assert kv != kn
    assert kn[1] == "N"


def test_cache_keeps_separate_templates_per_mode():
    graph_template_cache.clear()
    d, e = table3_matrix(4, 140, seed=9)
    lam_ref, _ = dc_eigh(d, e)
    try:
        for _ in range(2):          # second pass must hit, not rebuild
            for jobz in ("V", "N"):
                opts = DCOptions(jobz=jobz, reuse_graph=True)
                lam, V = dc_eigh(d, e, options=opts)
                np.testing.assert_array_equal(lam, lam_ref)
                assert (V is None) == (jobz == "N")
        st = graph_template_cache.stats()
        assert st["misses"] == 2    # one template per mode, no collision
        assert st["hits"] == 2
        assert st["size"] == 2
    finally:
        graph_template_cache.clear()


def test_cache_eviction_separates_modes():
    graph_template_cache.clear()
    old = graph_template_cache.maxsize
    graph_template_cache.maxsize = 1
    d, e = table3_matrix(4, 130, seed=10)
    try:
        for jobz in ("V", "N", "V"):
            opts = DCOptions(jobz=jobz, reuse_graph=True)
            dc_eigh(d, e, options=opts)
        st = graph_template_cache.stats()
        # Same n, alternating modes, one slot: every solve is a miss and
        # the two earlier templates were evicted (never silently shared).
        assert st["misses"] == 3 and st["evictions"] == 2
    finally:
        graph_template_cache.maxsize = old
        graph_template_cache.clear()


# ---------------------------------------------------------------------------
# Memory telemetry
# ---------------------------------------------------------------------------

def test_high_water_gauge_collapses_in_n_mode():
    d, e = table3_matrix(4, 400, seed=4)

    def high_water(jobz):
        res = dc_eigh(d, e, options=DCOptions(jobz=jobz), full_result=True)
        return solve_metrics(res).gauges["workspace.high_water_bytes"]

    hw_v, hw_n = high_water("V"), high_water("N")
    assert hw_n < 0.10 * hw_v
    # And the model itself: O(n) vs O(n^2) at the issue's gate size.
    assert solve_high_water_bytes(5000, 2500, jobz="N") <= \
        0.10 * solve_high_water_bytes(5000, 2500, jobz="V")


def test_solve_jobz_counter_reaches_telemetry():
    d, e = table3_matrix(4, 120, seed=8)
    res = dc_eigh(d, e, options=DCOptions(jobz="N"), full_result=True)
    counters = solve_metrics(res).counters
    assert counters.get("solve.jobz.N") == 1
    assert "solve.jobz.V" not in counters
