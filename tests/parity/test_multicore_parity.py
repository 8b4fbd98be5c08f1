"""Multi-core parity: the shared-LLC interleave against the scalar oracle.

``run_multicore`` interleaves per-core replays through the same driver
as ``Machine.run`` (least-advanced core first), on the batch fast path.
Three contracts pin it down:

* a one-trace ``run_multicore`` *is* ``Machine.run`` — cycles, cycle
  stack and the full machine signature, for every setup it accepts;
* partitioned 4-core runs replay bit-identically on the fast interleave
  and on the oracle interleave (a ``fast_path="off"`` machine driven by
  the same driver): per-core clocks and stacks, and the contents of
  every core's private caches, at the baseline LLC and under LLC
  pressure;
* demand accesses are conserved per core down the hierarchy.
"""

import dataclasses

import pytest

from repro.droplet.composite import EXTENDED_CONFIG_NAMES
from repro.graph import kronecker
from repro.system import Machine, SystemConfig, run_multicore
from repro.workloads import get_workload

from .signature import machine_state_signature, stack_signature

#: Setups run_multicore accepts (IMP is single-core only).
MULTICORE_SETUPS = tuple(s for s in EXTENDED_CONFIG_NAMES if s != "imp")
NUM_CORES = 4


@pytest.fixture(scope="module")
def cc_run(small_kron):
    return get_workload("CC").run(small_kron, max_refs=20_000)


@pytest.mark.parametrize("setup", MULTICORE_SETUPS)
def test_one_trace_multicore_is_machine_run(cc_run, setup):
    m = Machine(SystemConfig.scaled_baseline(), layout=cc_run.layout, setup=setup)
    single = m.run(cc_run.trace)
    multi = run_multicore([cc_run.trace], layout=cc_run.layout, setup=setup)
    assert multi.per_core_cycles == [single.cycles]
    assert stack_signature(multi.per_core_stacks[0]) == stack_signature(
        single.cycle_stack
    )
    assert machine_state_signature(multi.machine) == machine_state_signature(m)


@pytest.fixture(scope="module")
def partitioned():
    graph = kronecker(scale=12, edge_factor=8, seed=5, name="kron-s12")
    return {
        name: get_workload(name).run_partitioned(
            graph, num_cores=NUM_CORES, max_refs=10_000
        )
        for name in ("PR", "CC")
    }


# The scaled baseline's 256 KiB LLC, and a quarter of it: under that
# pressure prefetch fills back-invalidate other cores' L1 lines inside
# their guaranteed runs.  monoDROPLETL1's MPP chase also prefetch-fills
# the requesting core's L1, which may not be the core replaying.
@pytest.mark.parametrize("llc_kib", [256, 64])
@pytest.mark.parametrize(
    "setup", ["none", "stream", "droplet", "adaptive", "monoDROPLETL1"]
)
@pytest.mark.parametrize("workload", ["PR", "CC"])
def test_fast_interleave_matches_oracle_interleave(
    partitioned, workload, setup, llc_kib
):
    runs = partitioned[workload]
    traces = [r.trace for r in runs]
    cfg = SystemConfig.scaled_baseline(num_cores=NUM_CORES)
    cfg = dataclasses.replace(
        cfg, l3=dataclasses.replace(cfg.l3, size_bytes=llc_kib * 1024)
    )
    fast = run_multicore(traces, config=cfg, layout=runs[0].layout, setup=setup)
    assert fast.machine.fast_path == "vector"
    oracle = Machine(cfg, layout=runs[0].layout, setup=setup, fast_path="off")
    results = oracle._interleave(traces)
    assert fast.per_core_cycles == [r.cycles for r in results]
    assert [stack_signature(s) for s in fast.per_core_stacks] == [
        stack_signature(r.cycle_stack) for r in results
    ]
    # Counters, flags, contents and LRU order of every core's L1 and L2,
    # the shared LLC, and DRAM.
    assert machine_state_signature(fast.machine) == machine_state_signature(
        oracle
    )


@pytest.mark.parametrize("fast_path", ["auto", "off"])
def test_demand_accesses_are_conserved_per_core(partitioned, fast_path):
    runs = partitioned["PR"]
    cfg = SystemConfig.scaled_baseline(num_cores=NUM_CORES)
    m = Machine(cfg, layout=runs[0].layout, setup="droplet", fast_path=fast_path)
    m._interleave([r.trace for r in runs])
    h = m.hierarchy
    for l1, l2 in zip(h.l1s, h.l2s):
        assert l1.stats.total_accesses > 0
        assert l2.stats.total_accesses == l1.stats.total_misses
    assert h.l3.stats.total_accesses == sum(l2.stats.total_misses for l2 in h.l2s)
