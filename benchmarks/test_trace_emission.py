"""Trace emission: NumPy blocks against the per-reference oracles.

PR, PR-EDGE, BFS and BC emit their traces in NumPy blocks; each
per-reference loop they replaced is kept in ``tests/workloads/`` as the
oracle that block emission must match byte for byte.  This benchmark
times both on whole runs (``max_refs=None``) of experiment datasets at
scale_shift -3, best of 3 each in one process.  The skip covers the
whole run, so nothing is recorded and the time is emission alone.

A ratio of two times taken on the same machine moments apart holds on
any machine, so each cell is gated on its oracle/block ratio.  Each
floor is at most half the ratio measured on a 2-vCPU Xeon VM (Python
3.11, NumPy 2.4).  Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_trace_emission.py -q -s
"""

import time

from repro.runtime.points import TraceSpec
from repro.workloads import get_workload
from tests.workloads.bc_oracle import PerReferenceBC
from tests.workloads.bfs_oracle import PerReferenceBFS
from tests.workloads.pagerank_edge_oracle import PerReferenceEdgeCentricPageRank
from tests.workloads.pagerank_oracle import PerReferencePageRank

ROUNDS = 3
SCALE_SHIFT = -3
#: Longer than any run here: every reference is emitted, none recorded.
SKIP_ALL = 10**15
ORACLES = {
    "PR": PerReferencePageRank,
    "PR-EDGE": PerReferenceEdgeCentricPageRank,
    "BFS": PerReferenceBFS,
    "BC": PerReferenceBC,
}
#: (workload, dataset) -> lowest accepted oracle/block time ratio.
#: Measured on that VM: 62x, 67x, 16.8x, 29x and 9.5x.
FLOORS = {
    ("PR", "kron"): 25.0,
    ("PR-EDGE", "kron"): 25.0,
    ("BFS", "kron"): 6.0,
    ("BC", "kron"): 10.0,
    ("BFS", "road"): 4.0,
}

HEADER = ("trace", "data", "oracle s", "block s", "ratio", "floor")


def best_time(workload, graph):
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        run = workload.run(graph, max_refs=None, skip_refs=SKIP_ALL)
        best = min(best, time.perf_counter() - start)
        assert run.completed and len(run.trace) == 0
    return best


def test_block_emission_beats_the_oracle_by_its_floor():
    rows, failures = [], []
    for (name, dataset), floor in FLOORS.items():
        graph = TraceSpec(name, dataset, scale_shift=SCALE_SHIFT).graph()
        block = best_time(get_workload(name), graph)
        oracle = best_time(ORACLES[name](), graph)
        ratio = oracle / block
        rows.append((name, dataset, oracle, block, ratio, floor))
        if ratio < floor:
            failures.append((name, dataset, round(ratio, 2), floor))
    print("\n%-8s %-5s %10s %10s %8s %6s" % HEADER)
    for row in rows:
        print("%-8s %-5s %10.3f %10.3f %7.1fx %5.1fx" % row)
    assert not failures, "block emission fell below its floor: %s" % failures
