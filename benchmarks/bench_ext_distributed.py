"""EXT-4 — distributed-memory task-flow prototype (paper future work,
DPLASMA direction).

Runs the unchanged D&C DAG across 1/2/4 simulated nodes with
owner-computes tree placement and α–β network transfers.  The study's
outcome motivates exactly why the paper left distribution to future
work: independent subtrees scale across nodes, but the final merge
concentrates on one node's cores and ships O(n²) eigenvector data over
the wire, capping multi-node speedup — worse for high-deflation
matrices whose work is all data movement."""

from repro.runtime import ClusterMachine, tree_placement
from common import PAPER_MACHINE, save_table, solved_graph


def run():
    table = {}
    for mtype in (2, 4):
        sg = solved_graph(mtype, 1200, minpart=128, nb=48)
        base = None
        for nodes in (1, 2, 4):
            cm = ClusterMachine(n_nodes=nodes, machine=PAPER_MACHINE,
                                placement=tree_placement(1200, nodes),
                                execute=False)
            t = cm.run(sg.graph).makespan
            if base is None:
                base = t
            table[(mtype, nodes)] = (base / t, cm.bytes_on_wire / 1e6)
    return table


def test_distributed_prototype(benchmark):
    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [f"{'type':>5s} {'nodes':>6s} {'speedup':>8s} {'MB moved':>9s}"]
    for (mtype, nodes), (sp, mb) in table.items():
        rows.append(f"{mtype:>5d} {nodes:>6d} {sp:>8.2f} {mb:>9.1f}")
    rows.append("(compute-bound matrices gain from extra nodes; "
                "copy-dominated ones LOSE — the wire traffic exceeds "
                "the work being distributed.  This is the trade-off "
                "that makes the distributed port a study of its own, "
                "which the paper defers to future work.)")
    save_table("ext_distributed", "\n".join(rows))

    # Compute-bound (type 4): distribution helps, sub-linearly.
    assert 1.2 < table[(4, 2)][0] < 2.0
    assert table[(4, 4)][0] < 3.0
    # Copy-dominated (type 2): communication outweighs the distributed
    # work — multi-node is SLOWER than one node.
    assert table[(2, 2)][0] < 1.0
    # Communication volume grows with the node count.
    for mtype in (2, 4):
        assert table[(mtype, 4)][1] >= table[(mtype, 2)][1]
