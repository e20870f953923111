"""Bitwise pins for the Givens and merge data-movement kernels.

``apply_rotation_chains`` has two execution paths — per-rotation
streaming and vectorized batched rounds — chosen by block height and
chain count; both must equal applying the rotations one at a time with
``rot``.  The vectorized merge kernels ``t_apply_givens``,
``t_permute_panel`` and ``t_copyback_panel`` must equal their
column-at-a-time ``_ref`` twins on every merge of deflating Table III
matrices.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.core import DCContext, DCOptions, panel_ranges, submit_dc
from repro.core.merge import MergeState
from repro.kernels import givens
from repro.kernels.deflation import GivensRotation
from repro.kernels.givens import apply_rotation_chains, rot
from repro.matrices import test_matrix as table3_matrix
from repro.runtime import SequentialScheduler, TaskGraph

#: Block offset: the kernels address rows and columns ``lo + i``.
LO = 3
#: Block heights on both sides of the streaming/batched crossover.
HEIGHTS = (300, 700)
#: Chain counts on both sides of the batching threshold.
CHAIN_COUNTS = (3, 20)


def test_parameters_straddle_the_path_thresholds():
    assert HEIGHTS[0] <= givens._CROSSOVER_HEIGHT < HEIGHTS[1]
    assert CHAIN_COUNTS[0] < givens._MIN_BATCH_CHAINS <= CHAIN_COUNTS[1]


def _chains(rng, width: int, n_chains: int) -> list[list[GivensRotation]]:
    """Disjoint rotation chains over the columns of a ``width``-wide
    block, shaped like ``rotation_chains`` output: rotations (a, b),
    (b, c), ... where each surviving column ``j`` is the next ``i``."""
    cols = rng.permutation(width)
    chains, at = [], 0
    for _ in range(n_chains):
        members = cols[at:at + int(rng.integers(2, 6))]
        at += members.size
        chain = []
        for i, j in zip(members[:-1], members[1:]):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            chain.append(GivensRotation(int(i), int(j), float(np.cos(theta)),
                                        float(np.sin(theta))))
        chains.append(chain)
    return chains


def _one_rotation_at_a_time(V, lo, hi, chains) -> None:
    for chain in chains:
        for r in chain:
            rot(V[lo:hi, lo + r.i], V[lo:hi, lo + r.j], r.c, r.s)


def _problem(height: int, n_chains: int):
    rng = np.random.default_rng(1000 * height + n_chains)
    size = LO + height + 2            # rows/columns outside the block too
    V0 = np.asfortranarray(rng.standard_normal((size, size)))
    return V0, _chains(rng, height, n_chains)


@pytest.mark.parametrize("n_chains", CHAIN_COUNTS)
@pytest.mark.parametrize("height", HEIGHTS)
def test_givens_paths_match_one_rotation_at_a_time(height, n_chains):
    V0, chains = _problem(height, n_chains)
    hi = LO + height
    ref = V0.copy(order="F")
    _one_rotation_at_a_time(ref, LO, hi, chains)
    assert not np.array_equal(ref, V0)
    for path in (givens._apply_streaming, givens._apply_batched,
                 apply_rotation_chains):
        V = V0.copy(order="F")
        path(V, LO, hi, chains)
        assert np.array_equal(V, ref), path.__name__


@pytest.mark.parametrize("n_chains", CHAIN_COUNTS)
@pytest.mark.parametrize("height", HEIGHTS)
def test_givens_dispatch_rule(monkeypatch, height, n_chains):
    V, chains = _problem(height, n_chains)
    taken = []
    monkeypatch.setattr(givens, "_apply_streaming",
                        lambda *args: taken.append("streaming"))
    monkeypatch.setattr(givens, "_apply_batched",
                        lambda *args: taken.append("batched"))
    apply_rotation_chains(V, LO, LO + height, chains)
    batch = (n_chains >= givens._MIN_BATCH_CHAINS
             and height <= givens._CROSSOVER_HEIGHT)
    assert taken == ["batched" if batch else "streaming"]


# ---------------------------------------------------------------------------
# Merge kernels against their _ref twins
# ---------------------------------------------------------------------------

#: (kernel, Table III type): types 2 and 3 deflate about 100% and 50% of
#: their columns; 7, 9, 10 and 12 also record Givens rotations.
CASES = ([("t_permute_panel", t) for t in (2, 3, 7)]
         + [("t_copyback_panel", t) for t in (2, 3, 7)]
         + [("t_apply_givens", t) for t in (7, 9, 10, 12)])


@lru_cache(maxsize=None)
def _solved(mtype: int):
    """A solved context and its merge states, smallest merge first."""
    d, e = table3_matrix(mtype, 300, seed=1)
    ctx = DCContext(d, e, DCOptions(minpart=32))
    graph = TaskGraph()
    submit_dc(graph, ctx)
    SequentialScheduler().run(graph)
    states = {id(s): s for t in graph.tasks
              if isinstance(s := getattr(t.func, "__self__", None),
                            MergeState)}
    return ctx, sorted(states.values(), key=lambda s: (s.n, s.lo))


def _run(ctx, state: MergeState, kernel: str) -> None:
    """One pass of ``kernel`` over every panel (or Givens group)."""
    panels = panel_ranges(state.n, ctx.opts.effective_nb(ctx.n))
    fn = getattr(state, kernel)
    if kernel == "t_apply_givens" or kernel == "t_apply_givens_ref":
        groups = min(len(panels), 4)
        for g in range(groups):
            fn(g, groups)
    else:
        for p0, p1 in panels:
            fn(p0, p1)


@pytest.mark.parametrize("kernel,mtype", CASES)
def test_merge_kernel_matches_ref_twin(kernel, mtype):
    ctx, states = _solved(mtype)
    if kernel == "t_apply_givens":
        assert any(s.chains for s in states)
    else:
        assert any(s.k < s.n for s in states)
    rng = np.random.default_rng(mtype)
    start = [rng.standard_normal(a.shape) for a in (ctx.V, ctx.Vws, ctx.D)]
    for state in states:
        out = []
        for name in (kernel, kernel + "_ref"):
            for buf, init in zip((ctx.V, ctx.Vws, ctx.D), start):
                buf[...] = init
            _run(ctx, state, name)
            out.append([ctx.V.copy(), ctx.Vws.copy(), ctx.D.copy()])
        for got, want, what in zip(*out, ("V", "Vws", "D")):
            assert np.array_equal(got, want), (state.lo, state.hi, what)
