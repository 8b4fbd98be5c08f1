"""Differential parity: batch replay vs the scalar oracle, end to end.

Every workload in the registry runs across the full prefetcher matrix;
each (workload, setup) pair is simulated twice — ``fast_path='off'``
(the scalar reference oracle) and ``fast_path='auto'`` — and the two runs
must produce *bit-identical* signatures: cycles, cycle stacks, per-level
per-type counters, DRAM statistics, and complete cache contents
including LRU orderings (see :mod:`tests.parity.signature`).

Two scopes:

* the core {none, stream, droplet} matrix always runs over all six
  workloads;
* the extended setups (ghb, vldp, streamMPP1, adaptive, imp,
  monoDROPLETL1) run over a reduced workload set by default, and over
  all six workloads when ``REPRO_PARITY_FULL=1``, which the
  ``parity-prefetch`` CI job sets on every run.

Every setup replays on the fast path under ``fast_path='auto'``.
monoDROPLETL1 and imp prefetch-fill the L1, which the guaranteed-hit
filter never sees; the engine poisons those lines and replays every
guaranteed touch, and the L1-fill cases below fail if it does not.
"""

import os

import numpy as np
import pytest

from repro.droplet.composite import EXTENDED_CONFIG_NAMES, PrefetchSetup
from repro.graph import kronecker
from repro.prefetch.stream import StreamPrefetcher
from repro.system import Machine, SystemConfig, simulate
from repro.trace import DataType, TraceBuffer
from repro.workloads.registry import WORKLOADS, get_workload

from .signature import machine_signature, run_both_paths

MAX_REFS = 20_000
SETUPS = ("none", "stream", "droplet")
#: The rest of the constructible matrix, the two L1-filling setups last.
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
    _assert_parity(workload_runs[workload], setup, expect_tier="vector")


@pytest.fixture(scope="module")
def kron_s11():
    return kronecker(scale=11, edge_factor=8, seed=3, name="kron-s11")


# On this graph, replaying a guaranteed run from the plan's deduped
# touch list under L1 prefetch fills is off from the oracle by one L1
# hit for exactly these pairs (the 512-vertex matrix above misses it).
@pytest.mark.parametrize(
    "workload, setup",
    [("CC", "monoDROPLETL1"), ("BFS", "imp"), ("BC", "imp")],
)
def test_l1_fills_replay_every_guaranteed_touch(kron_s11, workload, setup):
    run = get_workload(workload).run(kron_s11, max_refs=MAX_REFS)
    _assert_parity(run, setup, expect_tier="vector")


def test_auto_mode_matches_forced_modes(workload_runs):
    """``fast_path='auto'`` (the default) picks the fast path and
    produces the same results as the oracle."""
    run = workload_runs["PR"]
    cfg = SystemConfig.scaled_baseline()
    results = {}
    for mode in ("off", "auto"):
        m = Machine(cfg, layout=run.layout, setup="none", fast_path=mode)
        results[mode] = (machine_signature(m.run(run.trace), m), m)
    default = Machine(cfg, layout=run.layout, setup="none")
    assert results["off"][0] == results["auto"][0]
    assert results["off"][0] == machine_signature(default.run(run.trace), default)
    assert results["auto"][1].fast_path == default.fast_path == "vector"
    assert results["off"][1].fast_path is False


@pytest.mark.parametrize("name", ["monoDROPLETL1", "imp"])
def test_l1_filling_setups_take_fast_path(workload_runs, name):
    """Setups that prefetch-fill the L1 resolve 'auto' to the fast path
    like every other setup."""
    run = workload_runs["PR"]
    cfg = SystemConfig.scaled_baseline()
    m = Machine(cfg, layout=run.layout, setup=name, fast_path="auto")
    assert m.fast_path == "vector"
    assert m.run(run.trace).fast_path == "vector"


@pytest.mark.parametrize("setup", EXTENDED_CONFIG_NAMES)
def test_simulate_reports_the_path_each_selector_takes(small_kron, setup):
    """Through ``simulate``, for every constructible setup: 'auto' (the
    default) replays on the fast path, 'off' on the scalar oracle."""
    run = get_workload("PR").run(small_kron, max_refs=2000)
    assert simulate(run, setup=setup).fast_path == "vector"
    assert simulate(run, setup=setup, fast_path="auto").fast_path == "vector"
    assert simulate(run, setup=setup, fast_path="off").fast_path is False


@pytest.mark.parametrize("mode", ["on", "vector", "scalar", True, False, None])
def test_machine_accepts_only_auto_and_off(mode):
    """Two spellings name the two paths; nothing is coerced, so a bool
    (``bool("off")`` is true) can never stand in for a selector."""
    with pytest.raises(ValueError, match="'auto' or 'off'"):
        Machine(SystemConfig.scaled_baseline(), setup="none", fast_path=mode)


@pytest.mark.parametrize("setup", ["droplet", "stream", "monoDROPLETL1", "imp"])
def test_pollution_taxonomy_counters_match(workload_runs, setup):
    """With attribution telemetry on (pollution tracker attached), the
    fast path reproduces the full prefetch taxonomy and per-region miss
    attribution bit for bit — for the L1-filling setups, including the
    L1 pollution shadow set only they carry."""
    from repro.telemetry import Telemetry

    run = workload_runs["PR"]
    cfg = SystemConfig.scaled_baseline()

    payloads = {}
    for mode in ("off", "auto"):
        tel = Telemetry(interval_cycles=50_000, attribution=True)
        m = Machine(cfg, layout=run.layout, setup=setup, fast_path=mode, telemetry=tel)
        assert m.run(run.trace).fast_path == ("vector" if mode == "auto" else False)
        assert m.hierarchy.pollution is not None
        payloads[mode] = (
            machine_signature_with_pollution(m),
            m._attribution.as_dict(),
        )
    assert payloads["off"] == payloads["auto"]


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
        """``setup`` is a name or a zero-argument factory (each machine
        must get fresh prefetcher state)."""
        cfg = SystemConfig.scaled_baseline()

        def make_machine(fast_path):
            built = setup() if callable(setup) else setup
            return Machine(cfg, setup=built, fast_path=fast_path)

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

    def test_l1_prefetch_fill_between_same_set_touches(self):
        """Line A is touched twice with no other access to its L1 set in
        between, so the plan's touch dedup drops the first touch.  An L1
        prefetch fill into that set lands between the two: it evicts the
        set's LRU line, which is A only if the first touch was dropped."""
        tb = TraceBuffer(name="l1fill")
        # Fill L1 set 3 (8 sets x 8 ways), A = line 3 first, so it is the
        # LRU line; one line per page keeps every stream untrained.
        for k in range(8):
            tb.load((3 + 64 * k) * 64, DataType.PROPERTY, gap=1)
        tb.load(3 * 64, DataType.PROPERTY, gap=1)  # guaranteed: A -> MRU
        # Three ascending misses in sets 0-2 confirm a stream, which
        # prefetches lines 6411.. — the first into L1 set 3 (not into
        # A's L2 set, which would back-invalidate A on both paths).
        for line in (6408, 6409, 6410):
            tb.load(line * 64, DataType.PROPERTY, gap=1)
        tb.load(3 * 64, DataType.PROPERTY, gap=1)  # the oracle hits
        self._compare(
            tb.finalize(),
            setup=lambda: PrefetchSetup(
                "streamL1", StreamPrefetcher(), fill_into_l1=True
            ),
        )
