"""Property-based tests for the DRAM model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import DRAMConfig, DRAMModel

requests = st.lists(
    st.tuples(
        st.integers(0, 200),      # line
        st.integers(0, 5_000),    # now (non-decreasing applied below)
        st.booleans(),            # is_prefetch
    ),
    min_size=1,
    max_size=200,
)


class TestDRAMProperties:
    @given(requests)
    @settings(max_examples=60, deadline=None)
    def test_latency_at_least_device_latency(self, reqs):
        dram = DRAMModel()
        now = 0
        for line, dt, is_pf in reqs:
            now += dt
            latency = dram.access(line, now, is_prefetch=is_pf)
            assert latency >= dram.config.device_latency

    @given(requests)
    @settings(max_examples=60, deadline=None)
    def test_stats_balance(self, reqs):
        dram = DRAMModel()
        now = 0
        demand = prefetch = 0
        for line, dt, is_pf in reqs:
            now += dt
            dram.access(line, now, is_prefetch=is_pf)
            if is_pf:
                prefetch += 1
            else:
                demand += 1
        assert dram.stats.demand_reads == demand
        assert dram.stats.prefetch_reads == prefetch
        assert dram.stats.bus_accesses == demand + prefetch

    @given(requests)
    @settings(max_examples=60, deadline=None)
    def test_demand_latency_independent_of_prefetch_history(self, reqs):
        """Demand-priority scheduling: replaying the same demand sequence
        with all prefetches removed yields identical demand latencies."""
        with_pf = DRAMModel()
        without_pf = DRAMModel()
        now = 0
        latencies_a = []
        latencies_b = []
        for line, dt, is_pf in reqs:
            now += dt
            lat = with_pf.access(line, now, is_prefetch=is_pf)
            if not is_pf:
                latencies_a.append(lat)
                latencies_b.append(without_pf.access(line, now))
        assert latencies_a == latencies_b

    @given(st.integers(1, 64), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_bank_mapping_in_range(self, num_banks, line):
        dram = DRAMModel(DRAMConfig(num_banks=num_banks))
        assert 0 <= dram._bank_of(line) < num_banks

