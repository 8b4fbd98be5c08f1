"""Trace emission: NumPy blocks against the per-reference oracles.

Every workload emits its trace in NumPy blocks (CC and SSSP decide each
block in a plain-list loop first); each per-reference loop they
replaced is kept in ``tests/workloads/`` as the oracle that block
emission must match byte for byte.  This benchmark times both on whole
runs (``max_refs=None``) of experiment datasets at scale_shift -3, best
of 3 each in one process.  The skip covers the whole run, so nothing is
recorded and the time is emission alone.  BFS runs once as top-down
only and once direction-optimizing, whose bottom-up sweeps kron's
frontiers switch to.

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
from tests.workloads.cc_oracle import PerReferenceCC
from tests.workloads.pagerank_edge_oracle import PerReferenceEdgeCentricPageRank
from tests.workloads.pagerank_oracle import PerReferencePageRank
from tests.workloads.sssp_oracle import PerReferenceSSSP

ROUNDS = 3
SCALE_SHIFT = -3
#: Longer than any run here: every reference is emitted, none recorded.
SKIP_ALL = 10**15
ORACLES = {
    "PR": PerReferencePageRank,
    "PR-EDGE": PerReferenceEdgeCentricPageRank,
    "BFS": PerReferenceBFS,
    "BC": PerReferenceBC,
    "CC": PerReferenceCC,
    "SSSP": PerReferenceSSSP,
}
DIRECTION_OPTIMIZING = {"direction_optimizing": True}
#: (workload, dataset, run kwargs, lowest accepted oracle/block time
#: ratio).  Measured on that VM: 62x, 67x, 16.8x, 29x, 9.5x, 16.5x,
#: 17.8x, 11.5x, 10.8x and 3.6x.
CELLS = [
    ("PR", "kron", {}, 25.0),
    ("PR-EDGE", "kron", {}, 25.0),
    ("BFS", "kron", {}, 6.0),
    ("BC", "kron", {}, 10.0),
    ("BFS", "road", {}, 4.0),
    ("BFS", "kron", DIRECTION_OPTIMIZING, 6.0),
    ("CC", "kron", {}, 8.0),
    ("CC", "road", {}, 5.0),
    ("SSSP", "kron", {}, 5.0),
    ("SSSP", "road", {}, 1.5),
]

HEADER = ("trace", "data", "oracle s", "block s", "ratio", "floor")


def best_time(workload, graph, kwargs):
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        run = workload.run(graph, max_refs=None, skip_refs=SKIP_ALL, **kwargs)
        best = min(best, time.perf_counter() - start)
        assert run.completed and len(run.trace) == 0
    return best


def test_block_emission_beats_the_oracle_by_its_floor():
    rows, failures = [], []
    for name, dataset, kwargs, floor in CELLS:
        graph = TraceSpec(name, dataset, scale_shift=SCALE_SHIFT).graph()
        block = best_time(get_workload(name), graph, kwargs)
        oracle = best_time(ORACLES[name](), graph, kwargs)
        ratio = oracle / block
        trace = name + ("-DO" if kwargs else "")
        rows.append((trace, dataset, oracle, block, ratio, floor))
        if ratio < floor:
            failures.append((trace, dataset, round(ratio, 2), floor))
    print("\n%-8s %-5s %10s %10s %8s %6s" % HEADER)
    for row in rows:
        print("%-8s %-5s %10.3f %10.3f %7.1fx %5.1fx" % row)
    assert not failures, "block emission fell below its floor: %s" % failures
