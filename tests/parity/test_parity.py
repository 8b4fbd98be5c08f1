"""Differential parity: batch replay vs the scalar oracle, end to end.

Every workload in the registry runs across the full prefetcher matrix;
each (workload, setup) pair is simulated twice — ``fast_path='off'``
(the scalar reference oracle) and ``fast_path='on'`` — and the two runs
must produce *bit-identical* signatures: cycles, cycle stacks, per-level
per-type counters, DRAM statistics, and complete cache contents
including LRU orderings (see :mod:`tests.parity.signature`).

Two scopes keep PR latency bounded (the ``parity-prefetch`` CI job):

* the core {none, stream, droplet} matrix always runs over all six
  workloads;
* the extended setups (ghb, vldp, streamMPP1, adaptive, imp,
  monoDROPLETL1) run over a reduced workload set per PR, and over all
  six workloads when ``REPRO_PARITY_FULL=1`` (nightly / `parity-full`
  label).

monoDROPLETL1 and imp prefetch-fill the L1, which voids the fast
path's guaranteed-hit filter, so ``fast_path='on'``/``'auto'`` route
them to the scalar oracle; their matrix rows pin that routing.
"""

import os

import numpy as np
import pytest

from repro.system import Machine, SystemConfig
from repro.trace import DataType, TraceBuffer
from repro.workloads.registry import WORKLOADS, get_workload

from .signature import machine_signature, run_both_paths

MAX_REFS = 20_000
SETUPS = ("none", "stream", "droplet")
#: The rest of the constructible matrix; the two L1-filling setups at
#: the end replay on the scalar oracle.
EXTENDED_SETUPS = ("ghb", "vldp", "streamMPP1", "adaptive", "imp", "monoDROPLETL1")
#: Extended-matrix workloads always exercised per PR; the rest join
#: when REPRO_PARITY_FULL=1.
REDUCED_WORKLOADS = ("PR", "BFS")
FULL_MATRIX = os.environ.get("REPRO_PARITY_FULL") == "1"


def _extended_workloads():
    for name in sorted(WORKLOADS):
        if FULL_MATRIX or name in REDUCED_WORKLOADS:
            yield name
        else:
            yield pytest.param(
                name,
                marks=pytest.mark.skip(
                    reason="extended matrix: set REPRO_PARITY_FULL=1"
                ),
            )


@pytest.fixture(scope="module")
def workload_runs(small_kron, small_kron_weighted):
    """One finalized trace per registered workload (six of them)."""
    runs = {}
    for name in WORKLOADS:
        graph = small_kron_weighted if name == "SSSP" else small_kron
        runs[name] = get_workload(name).run(graph, max_refs=MAX_REFS)
    return runs


def test_registry_has_six_workloads():
    assert len(WORKLOADS) == 6, sorted(WORKLOADS)


def _assert_parity(run, setup, expect_tier):
    cfg = SystemConfig.scaled_baseline()

    def make_machine(fast_path):
        return Machine(cfg, layout=run.layout, setup=setup, fast_path=fast_path)

    sig_scalar, sig_fast, result = run_both_paths(make_machine, run.trace)
    assert sig_scalar == sig_fast
    assert result.fast_path == expect_tier
    return result


@pytest.mark.parametrize("setup", SETUPS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fast_path_is_bit_identical(workload_runs, workload, setup):
    _assert_parity(workload_runs[workload], setup, expect_tier="vector")


@pytest.mark.parametrize("setup", EXTENDED_SETUPS)
@pytest.mark.parametrize("workload", _extended_workloads())
def test_prefetch_matrix_is_bit_identical(workload_runs, workload, setup):
    tier = False if setup in ("imp", "monoDROPLETL1") else "vector"
    _assert_parity(workload_runs[workload], setup, expect_tier=tier)


def test_auto_mode_matches_forced_modes(workload_runs):
    """``fast_path='auto'`` picks the fast path for eligible setups and
    produces the same results as both forced modes."""
    run = workload_runs["PR"]
    cfg = SystemConfig.scaled_baseline()
    results = {}
    for mode in ("off", "on", "auto"):
        m = Machine(cfg, layout=run.layout, setup="none", fast_path=mode)
        results[mode] = (machine_signature(m.run(run.trace), m), m)
    assert results["off"][0] == results["on"][0] == results["auto"][0]
    assert results["auto"][1].fast_path == "vector"


@pytest.mark.parametrize("name", ["monoDROPLETL1", "imp"])
def test_l1_filling_setups_route_to_oracle(workload_runs, name):
    """Setups that prefetch-fill the L1 void the guaranteed-hit filter:
    'on' and 'auto' resolve them to the scalar oracle, and the removed
    'vector' selector is rejected like any unknown mode."""
    from repro.droplet.composite import make_prefetch_setup
    from repro.system.fastreplay import eligible_setup

    assert not eligible_setup(make_prefetch_setup(name))
    run = workload_runs["PR"]
    cfg = SystemConfig.scaled_baseline()
    for mode in ("on", "auto", True):
        m = Machine(cfg, layout=run.layout, setup=name, fast_path=mode)
        assert m.fast_path is False, mode
    assert m.run(run.trace).fast_path is False
    with pytest.raises(ValueError):
        Machine(cfg, layout=run.layout, setup=name, fast_path="vector")
    with pytest.raises(ValueError):
        Machine(cfg, layout=run.layout, setup="none", fast_path="vector")


@pytest.mark.parametrize("setup", ["droplet", "stream"])
def test_pollution_taxonomy_counters_match(workload_runs, setup):
    """With attribution telemetry on (pollution tracker attached), the
    fast path reproduces the full prefetch taxonomy and per-region miss
    attribution bit for bit."""
    from repro.telemetry import Telemetry

    run = workload_runs["PR"]
    cfg = SystemConfig.scaled_baseline()

    payloads = {}
    for mode in ("off", "on"):
        tel = Telemetry(interval_cycles=50_000, attribution=True)
        m = Machine(cfg, layout=run.layout, setup=setup, fast_path=mode, telemetry=tel)
        assert m.run(run.trace).fast_path == ("vector" if mode == "on" else False)
        assert m.hierarchy.pollution is not None
        payloads[mode] = (
            machine_signature_with_pollution(m),
            m._attribution.as_dict(),
        )
    assert payloads["off"] == payloads["on"]


def machine_signature_with_pollution(machine):
    """Pollution taxonomy + per-issuer ledger counters, fully expanded."""
    ledger = machine.ledger
    out = {"pollution": machine.hierarchy.pollution.as_dict()}
    for issuer, counters in sorted(ledger.counters.items()):
        out[issuer] = {
            "issued": dict(counters.issued),
            "useful": dict(counters.useful),
            "late": dict(counters.late),
            "polluting": dict(counters.polluting),
        }
    return out


class TestSyntheticEdgeCases:
    """Hand-built traces that aim at the replay engine's seams."""

    def _compare(self, trace, setup="none"):
        cfg = SystemConfig.scaled_baseline()

        def make_machine(fast_path):
            return Machine(cfg, setup=setup, fast_path=fast_path)

        sig_scalar, sig_fast, _ = run_both_paths(make_machine, trace)
        assert sig_scalar == sig_fast

    def test_single_reference(self):
        tb = TraceBuffer(name="one")
        tb.load(0, DataType.PROPERTY, gap=1)
        self._compare(tb.finalize())

    @pytest.mark.parametrize("setup", ["none", "stream"])
    def test_all_hits_after_warmup(self, setup):
        tb = TraceBuffer(name="warm")
        for rep in range(50):
            for i in range(8):
                tb.load(i * 64, DataType.PROPERTY, gap=1)
        self._compare(tb.finalize(), setup=setup)

    def test_store_heavy_reuse(self):
        rng = np.random.default_rng(7)
        tb = TraceBuffer(name="stores")
        for _ in range(6000):
            addr = int(rng.integers(0, 400)) * 64
            if rng.random() < 0.5:
                tb.store(addr, DataType.PROPERTY, gap=1)
            else:
                tb.load(addr, DataType.PROPERTY, gap=1)
        self._compare(tb.finalize())

    def test_dependent_chains_span_windows(self):
        tb = TraceBuffer(name="chains")
        rng = np.random.default_rng(13)
        prev = -1
        for i in range(5000):
            addr = int(rng.integers(0, 1 << 14)) * 64
            dep = prev if prev >= 0 and i % 3 else -1
            prev = tb.load(addr, DataType.PROPERTY, dep=dep, gap=3)
        self._compare(tb.finalize())

    @pytest.mark.parametrize("setup", ["none", "stream"])
    def test_thrashing_working_set(self, setup):
        """Working set far beyond every level: miss-dominated replay
        (with `stream`, every miss also snoops the prefetcher)."""
        tb = TraceBuffer(name="thrash")
        rng = np.random.default_rng(17)
        for _ in range(4000):
            tb.load(int(rng.integers(0, 1 << 20)) * 64,
                    DataType.STRUCTURE, gap=1)
        self._compare(tb.finalize(), setup=setup)

    def test_zero_gap_references(self):
        tb = TraceBuffer(name="dense")
        for i in range(2000):
            tb.load((i % 64) * 64, DataType.INTERMEDIATE, gap=0)
        self._compare(tb.finalize())

    def test_sequential_streams_trigger_prefetch_runs(self):
        """Long ascending line streams confirm stream trackers, so
        prefetch fills and back-invalidations land *inside* guaranteed
        runs — the poison-set path."""
        tb = TraceBuffer(name="streams")
        for page in range(32):
            base = page * 64 * 64
            for i in range(64):
                tb.load(base + i * 64, DataType.STRUCTURE, gap=1)
            # Re-walk the page to fold prefetched lines into hit runs.
            for i in range(0, 64, 2):
                tb.load(base + i * 64, DataType.STRUCTURE, gap=1)
        self._compare(tb.finalize(), setup="stream")
