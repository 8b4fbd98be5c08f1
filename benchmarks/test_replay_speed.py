"""Replay-throughput benchmark: batch fast path vs the scalar oracle, v2.

Every registered workload is traced once and replayed through both paths
for each benchmarked prefetcher setup — ``none`` (the v1 baseline
matrix) plus the two paper-central prefetch-active setups ``stream``
and ``droplet``.  The scalar oracle is timed with bare ``perf_counter``
best-of-N; the fast path runs under ``pytest-benchmark`` so
``--benchmark-json`` artifacts carry the full distribution.  Within a
cell the scalar rounds alternate with the fast rounds (each scalar
round runs in the set-up of the next fast round), so a host whose speed
shifts in phases slows both sides alike and the ratio holds.

A final reporting test writes ``BENCH_replay.json`` — the
machine-portable speedup summary that CI's ``bench-smoke`` job compares
against the committed baseline (``benchmarks/BENCH_replay.json``) — and
enforces the v2 headline target: **>= 3x geomean replay throughput over
the prefetch-active matrix** (six workloads x {stream, droplet}).
Per-cell speedups vary with trace locality and machine noise (roughly
2.4-5.9x on the reference box), so individual cells are gated only at
break-even; the geomean carries the contract.

Speedups are reported amortized: the replay plan is pure derived data
cached on the trace, exactly how sweeps (many setups x one trace) and
repeated replays use the engine.

The scale-11 toy graph is the hit-heavy side (78-91% guaranteed L1
hits).  Five experiment-scale cells sit beside it: the traces the
``perfbench`` workloads replay (PR on kron and BFS on road, 200k
references at scale_shift 0 on the scaled baseline), where a third to a
half of the references miss the L1.  They land in the report's
``experiment_cells`` with their own committed baseline and floor, and
no target.  Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/test_replay_speed.py -q
"""

import json
import math
import os
import time

import pytest

from repro.graph import kronecker
from repro.runtime import TraceSpec
from repro.system import Machine, SystemConfig
from repro.workloads.registry import WORKLOADS, get_workload

MAX_REFS = 200_000
GRAPH_SCALE = 11
SCALAR_ROUNDS = 2
FAST_ROUNDS = 3
SETUPS = ("none", "stream", "droplet")
#: Setups whose cells form the gated prefetch matrix.
MATRIX_SETUPS = ("stream", "droplet")
MATRIX_TARGET = 3.0
#: (workload, dataset, setup) of the experiment-scale cells.
EXPERIMENT_CELLS = (
    ("PR", "kron", "none"),
    ("PR", "kron", "droplet"),
    ("BFS", "road", "stream"),
    ("BFS", "road", "droplet"),
    ("BFS", "road", "monoDROPLETL1"),
)

_RESULTS: dict[str, dict[str, dict]] = {}
_EXPERIMENT: dict[str, dict[str, dict]] = {}


@pytest.fixture(scope="module")
def bench_graphs():
    graph = kronecker(scale=GRAPH_SCALE, edge_factor=8, seed=5, name="bench-kron")
    weighted = kronecker(
        scale=GRAPH_SCALE, edge_factor=8, weighted=True, seed=5,
        name="bench-kron-w",
    )
    return graph, weighted


@pytest.fixture(scope="module")
def bench_runs(bench_graphs):
    graph, weighted = bench_graphs
    runs = {}
    for name in WORKLOADS:
        g = weighted if name == "SSSP" else graph
        runs[name] = get_workload(name).run(g, max_refs=MAX_REFS)
    return runs


@pytest.fixture(scope="module")
def experiment_runs():
    traces = dict.fromkeys((w, d) for w, d, _ in EXPERIMENT_CELLS)
    return {
        (w, d): TraceSpec(w, d, max_refs=MAX_REFS, scale_shift=0).trace()
        for w, d in traces
    }


def _time_cell(benchmark, run, setup, config) -> dict:
    """Time one cell on both paths; returns its report record."""
    trace = run.trace
    scalar_times = []
    scalar_results = []

    def machine(fast_path):
        return Machine(config, layout=run.layout, setup=setup, fast_path=fast_path)

    def fresh():
        # The set-up is not timed: run a scalar round here, before each
        # of the first SCALAR_ROUNDS fast rounds, so the two alternate.
        if len(scalar_times) < SCALAR_ROUNDS:
            m = machine("off")
            t0 = time.perf_counter()
            scalar_results.append(m.run(trace))
            scalar_times.append(time.perf_counter() - t0)
        return (machine("auto"),), {}

    fast_result = benchmark.pedantic(
        lambda m: m.run(trace), setup=fresh, rounds=FAST_ROUNDS
    )
    fast_s = benchmark.stats.stats.min
    scalar_s = min(scalar_times)
    scalar_result = scalar_results[-1]

    # The benchmark is only meaningful if both paths agree.
    assert fast_result.fast_path == "vector"
    assert fast_result.cycles == scalar_result.cycles
    assert fast_result.instructions == scalar_result.instructions

    speedup = scalar_s / fast_s
    benchmark.extra_info["scalar_s"] = scalar_s
    benchmark.extra_info["speedup"] = speedup
    return {
        "refs": len(trace),
        "scalar_s": round(scalar_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(speedup, 3),
        "refs_per_s_scalar": round(len(trace) / scalar_s),
        "refs_per_s_fast": round(len(trace) / fast_s),
    }


@pytest.mark.parametrize("setup", SETUPS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_replay_speed(benchmark, bench_runs, workload, setup):
    cell = _time_cell(
        benchmark, bench_runs[workload], setup, SystemConfig.paper_baseline()
    )
    _RESULTS.setdefault(workload, {})[setup] = cell
    # Every cell must at least break even; the 3x target applies to the
    # prefetch-matrix geomean below, not to individual noisy cells.
    assert cell["speedup"] > 1.0, cell


@pytest.mark.parametrize("workload,dataset,setup", EXPERIMENT_CELLS)
def test_experiment_replay_speed(
    benchmark, experiment_runs, workload, dataset, setup
):
    cell = _time_cell(
        benchmark,
        experiment_runs[(workload, dataset)],
        setup,
        SystemConfig.scaled_baseline(),
    )
    _EXPERIMENT.setdefault("%s/%s" % (workload, dataset), {})[setup] = cell
    assert cell["speedup"] > 1.0, cell


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_write_report(bench_runs):
    """Aggregate, write BENCH_replay.json, enforce the matrix target."""
    missing = [
        (w, s)
        for w in WORKLOADS
        for s in SETUPS
        if s not in _RESULTS.get(w, {})
    ]
    missing += [
        (w, d, s)
        for w, d, s in EXPERIMENT_CELLS
        if s not in _EXPERIMENT.get("%s/%s" % (w, d), {})
    ]
    assert not missing, "benchmark cells did not all run: %s" % missing

    matrix = [
        _RESULTS[w][s]["speedup"] for w in WORKLOADS for s in MATRIX_SETUPS
    ]
    baseline = [_RESULTS[w]["none"]["speedup"] for w in WORKLOADS]
    matrix_geomean = round(_geomean(matrix), 3)
    report = {
        "schema": "repro-replay-bench-v2",
        "config": {
            "baseline": "paper_baseline",
            "setups": list(SETUPS),
            "max_refs": MAX_REFS,
            "graph": "kron-scale%d-ef8" % GRAPH_SCALE,
            "timing": "best-of-%d, plan amortized" % FAST_ROUNDS,
            "experiment": "scaled_baseline, scale_shift 0, default seeds",
        },
        "cells": _RESULTS,
        "experiment_cells": _EXPERIMENT,
        "aggregates": {
            "prefetch_matrix_geomean": matrix_geomean,
            "prefetch_matrix_cells": len(matrix),
            "prefetch_matrix_min": min(matrix),
            "prefetch_matrix_max": max(matrix),
            "baseline_geomean": round(_geomean(baseline), 3),
        },
        "headline": {
            "matrix": "six workloads x %s" % (list(MATRIX_SETUPS),),
            "geomean_speedup": matrix_geomean,
            "target": MATRIX_TARGET,
        },
    }
    out = os.environ.get("REPRO_BENCH_REPLAY_OUT", "BENCH_replay.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert matrix_geomean >= MATRIX_TARGET, report["headline"]
