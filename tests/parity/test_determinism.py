"""Nondeterminism audit: identical runs must be identical, always.

Bit-exact parity testing is only meaningful if the simulator itself is
deterministic — a flaky RNG seed or dict-iteration dependence would show
up as spurious parity failures.  These tests pin that down: tracing the
same workload twice yields byte-identical traces, and replaying the same
trace on two fresh machines (scalar or fast) yields identical signatures.
"""

import numpy as np

from repro.system import Machine, SystemConfig
from repro.workloads.registry import get_workload

from .signature import machine_signature


def _trace_bytes(trace):
    return (
        trace.addr.tobytes(),
        trace.kind.tobytes(),
        trace.is_load.tobytes(),
        trace.dep.tobytes(),
        trace.gap.tobytes(),
        tuple(trace.phases),
    )


def test_tracing_is_deterministic(small_kron):
    a = get_workload("PR").run(small_kron, max_refs=8000)
    b = get_workload("PR").run(small_kron, max_refs=8000)
    assert _trace_bytes(a.trace) == _trace_bytes(b.trace)


def test_back_to_back_runs_identical(small_kron):
    """Two fresh machines replaying one trace agree on every observable,
    for both replay paths and with a prefetching setup in the loop."""
    run = get_workload("BFS").run(small_kron, max_refs=8000)
    cfg = SystemConfig.scaled_baseline()
    for setup in ("none", "droplet"):
        for mode in ("off", "auto"):
            m1 = Machine(cfg, layout=run.layout, setup=setup, fast_path=mode)
            s1 = machine_signature(m1.run(run.trace), m1)
            m2 = Machine(cfg, layout=run.layout, setup=setup, fast_path=mode)
            s2 = machine_signature(m2.run(run.trace), m2)
            assert s1 == s2, (setup, mode)


def test_plan_cache_does_not_leak_state(small_kron):
    """Replaying a trace twice on the fast path reuses the cached plan;
    the second run must still match a fresh scalar run exactly."""
    run = get_workload("PR").run(small_kron, max_refs=8000)
    cfg = SystemConfig.scaled_baseline()
    m_fast1 = Machine(cfg, layout=run.layout, setup="none", fast_path="auto")
    m_fast1.run(run.trace)
    assert getattr(run.trace, "_replay_tables", None) is not None
    m_fast2 = Machine(cfg, layout=run.layout, setup="none", fast_path="auto")
    s_fast2 = machine_signature(m_fast2.run(run.trace), m_fast2)
    m_scalar = Machine(cfg, layout=run.layout, setup="none", fast_path="off")
    s_scalar = machine_signature(m_scalar.run(run.trace), m_scalar)
    assert s_fast2 == s_scalar


def test_fast_path_telemetry_payload_is_byte_identical(small_kron):
    """The full exported telemetry payload — samples, intervals, events,
    histograms, attribution — serializes to byte-identical JSON when the
    same prefetch-active trace is replayed twice through the fast path.

    This is the contract CI dashboards rely on: telemetry diffs between
    runs mean the *simulated machine* changed, never replay-order noise.
    The payload deliberately carries no wall-clock fields, so any byte
    difference here is a real nondeterminism bug."""
    import json

    from repro.telemetry import Telemetry
    from repro.telemetry.export import telemetry_dict

    run = get_workload("PR").run(small_kron, max_refs=8000)
    cfg = SystemConfig.scaled_baseline()

    def payload():
        tel = Telemetry(interval_cycles=25_000, attribution=True)
        m = Machine(cfg, layout=run.layout, setup="droplet",
                    fast_path="auto", telemetry=tel)
        result = m.run(run.trace)
        assert result.fast_path == "vector"
        return json.dumps(
            telemetry_dict(tel, meta={"workload": "PR", "setup": "droplet"}),
            sort_keys=True,
        ).encode()

    assert payload() == payload()


def test_global_rng_is_not_consumed(small_kron):
    """Simulation must not draw from global RNG state (the seed-pinning
    fixture in conftest would mask it between tests, not within one)."""
    run = get_workload("PR").run(small_kron, max_refs=4000)
    np.random.seed(1234)
    before = np.random.get_state()[1].copy()
    m = Machine(SystemConfig.scaled_baseline(), layout=run.layout,
                setup="droplet", fast_path="auto")
    m.run(run.trace)
    after = np.random.get_state()[1]
    assert np.array_equal(before, after)
