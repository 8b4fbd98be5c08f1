"""Unit tests for the inclusive three-level hierarchy."""

import pytest

from repro.cache import CacheConfig, CacheHierarchy
from repro.trace import DataType


def make_hierarchy(num_cores=1, with_l2=True, l3_size=16 * 64):
    l1 = CacheConfig("L1", 2 * 64, 2, 64)
    l2 = CacheConfig("L2", 4 * 64, 2, 64) if with_l2 else None
    l3 = CacheConfig("L3", l3_size, 4, 64)
    return CacheHierarchy(l1, l2, l3, num_cores)


class TestDemandPath:
    def test_cold_miss_goes_to_dram_and_fills_all_levels(self):
        h = make_hierarchy()
        out = h.demand_access(0, 100, DataType.PROPERTY)
        assert out.level == "DRAM"
        assert h.l1s[0].contains(100)
        assert h.l2s[0].contains(100)
        assert h.l3.contains(100)

    def test_l1_hit(self):
        h = make_hierarchy()
        h.demand_access(0, 100, DataType.PROPERTY)
        out = h.demand_access(0, 100, DataType.PROPERTY)
        assert out.level == "L1"
        assert h.l1s[0].stats.hits[DataType.PROPERTY] == 1

    def test_l2_hit_after_l1_eviction(self):
        h = make_hierarchy()
        # L1 is one 2-way set; lines 0, 2, 3 overflow it while mapping to
        # two different L2 sets (so all three stay L2-resident).
        h.demand_access(0, 0, DataType.PROPERTY)
        h.demand_access(0, 2, DataType.PROPERTY)
        h.demand_access(0, 3, DataType.PROPERTY)  # evicts line 0 from L1
        assert not h.l1s[0].contains(0)
        out = h.demand_access(0, 0, DataType.PROPERTY)
        assert out.level == "L2"
        assert h.l1s[0].contains(0)  # refilled

    def test_no_l2_configuration(self):
        h = make_hierarchy(with_l2=False)
        assert h.l2s is None
        h.demand_access(0, 0, DataType.PROPERTY)
        h.demand_access(0, 2, DataType.PROPERTY)
        h.demand_access(0, 4, DataType.PROPERTY)
        out = h.demand_access(0, 0, DataType.PROPERTY)
        assert out.level == "L3"

    def test_store_marks_dirty_and_writeback_on_l3_eviction(self):
        h = make_hierarchy(l3_size=4 * 64)
        h.demand_access(0, 0, DataType.PROPERTY, is_store=True)
        # Fill set 0 of the 1-set... (4-way) L3 until line 0 is evicted.
        for line in (4, 8, 12, 16):
            h.demand_access(0, line, DataType.PROPERTY)
        events = h.drain_events()
        writebacks = [e for e in events if e.kind == "writeback"]
        assert any(e.line == 0 for e in writebacks)

    def test_clean_eviction_no_writeback(self):
        h = make_hierarchy(l3_size=4 * 64)
        h.demand_access(0, 0, DataType.PROPERTY)
        for line in (4, 8, 12, 16):
            h.demand_access(0, line, DataType.PROPERTY)
        events = h.drain_events()
        assert not [e for e in events if e.kind == "writeback" and e.line == 0]


class TestInclusion:
    def test_l3_eviction_back_invalidates_private_caches(self):
        h = make_hierarchy(l3_size=4 * 64)
        h.demand_access(0, 0, DataType.PROPERTY)
        assert h.l1s[0].contains(0)
        for line in (4, 8, 12, 16):
            h.demand_access(0, line, DataType.PROPERTY)
        assert not h.l3.contains(0)
        assert not h.l1s[0].contains(0)
        assert not h.l2s[0].contains(0)

    def test_l2_eviction_back_invalidates_l1(self):
        # L2: 4 lines, 2-way => 2 sets. Lines 0,2,4 map to L2 set 0.
        h = make_hierarchy()
        h.demand_access(0, 0, DataType.PROPERTY)
        h.demand_access(0, 2, DataType.PROPERTY)
        h.demand_access(0, 4, DataType.PROPERTY)  # evicts 0 from L2
        assert not h.l2s[0].contains(0)
        assert not h.l1s[0].contains(0)

    def test_invariant_l1_subset_of_l3(self):
        h = make_hierarchy(l3_size=8 * 64)
        import random

        rng = random.Random(7)
        for _ in range(300):
            h.demand_access(0, rng.randrange(0, 64), DataType.PROPERTY)
        for line in h.l1s[0].resident_lines():
            assert h.l3.contains(line)
        for line in h.l2s[0].resident_lines():
            assert h.l3.contains(line)


class TestMultiCore:
    def test_private_caches_are_private(self):
        h = make_hierarchy(num_cores=2)
        h.demand_access(0, 0, DataType.PROPERTY)
        assert h.l1s[0].contains(0)
        assert not h.l1s[1].contains(0)
        out = h.demand_access(1, 0, DataType.PROPERTY)
        assert out.level == "L3"  # shared LLC services the other core

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            make_hierarchy(num_cores=0)


class TestPrefetchPath:
    def test_prefetch_fill_l2_l3_not_l1(self):
        h = make_hierarchy()
        h.prefetch_fill(0, 42, DataType.STRUCTURE)
        assert not h.l1s[0].contains(42)
        assert h.l2s[0].contains(42)
        assert h.l3.contains(42)

    def test_prefetch_fill_into_l1(self):
        h = make_hierarchy()
        h.prefetch_fill(0, 42, DataType.STRUCTURE, into_l1=True)
        assert h.l1s[0].contains(42)

    def test_demand_on_prefetched_line_reports_first_use(self):
        h = make_hierarchy()
        h.prefetch_fill(0, 42, DataType.STRUCTURE)
        out = h.demand_access(0, 42, DataType.STRUCTURE)
        assert out.level == "L2"
        assert out.prefetched
        assert out.first_use_of_prefetch
        out2 = h.demand_access(0, 42, DataType.STRUCTURE)
        assert not out2.first_use_of_prefetch

    def test_unused_prefetch_eviction_event(self):
        h = make_hierarchy(l3_size=4 * 64)
        h.prefetch_fill(0, 0, DataType.STRUCTURE)
        for line in (4, 8, 12, 16):
            h.demand_access(0, line, DataType.PROPERTY)
        events = h.drain_events()
        assert any(
            e.kind == "evict_unused_pf" and e.line == 0 and e.level == "L3"
            for e in events
        )

    def test_copy_to_l2_requires_l3_residency(self):
        h = make_hierarchy()
        assert h.copy_to_l2(0, 7, DataType.PROPERTY) is False
        assert not h.l2s[0].contains(7)
        h.demand_access(0, 7, DataType.PROPERTY)
        assert h.copy_to_l2(0, 7, DataType.PROPERTY) is True
        assert h.l2s[0].contains(7)

    def test_on_chip_probe(self):
        h = make_hierarchy()
        assert not h.on_chip(3)
        h.demand_access(0, 3, DataType.PROPERTY)
        assert h.on_chip(3)
