"""Soundness fuzz for the replay planner's building blocks.

``guaranteed_hit_mask`` claims a *conservative* property: every marked
reference is an LRU hit under pure demand traffic.  The fuzz drives the
brute-force oracle over random address streams and rejects any marked
reference that misses.  The sparse window-timing variant claims bit
equality with the dense one when fed the loads the pruning keeps; the
second fuzz checks exactly that.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.reuse import guaranteed_hit_mask, previous_occurrences
from repro.core.mlp import compute_window_timing, compute_window_timing_sparse
from repro.trace import DataType, TraceBuffer
from repro.trace.plan import plan_replay

from .oracle import LRUOracle

streams = st.lists(st.integers(0, 40), min_size=1, max_size=300)
geometries = st.sampled_from([(1, 2), (2, 2), (4, 4), (8, 2)])


class TestGuaranteedHitMask:
    @settings(max_examples=300, deadline=None)
    @given(streams, geometries)
    def test_marked_references_always_hit(self, lines, geometry):
        num_sets, assoc = geometry
        mask = guaranteed_hit_mask(np.array(lines), num_sets, assoc)
        oracle = LRUOracle(num_sets, assoc)
        for i, line in enumerate(lines):
            hit = oracle.access(line)
            if mask[i]:
                assert hit, (
                    "reference %d (line %d) marked guaranteed but missed"
                    % (i, line)
                )

    @settings(max_examples=200, deadline=None)
    @given(streams)
    def test_previous_occurrences_matches_dict_walk(self, lines):
        prev = previous_occurrences(np.array(lines))
        last: dict[int, int] = {}
        for i, v in enumerate(lines):
            assert prev[i] == last.get(v, -1)
            last[v] = i

    def test_plan_touch_dedup_covers_final_lru_state(self):
        """Deduped touch lists preserve the last-touch-per-line order.

        Within every guaranteed run, replaying only ``touch_index``
        entries must leave each set's LRU order identical to touching
        every reference (checked against the oracle's full replay).
        """
        rng = np.random.default_rng(11)
        tb = TraceBuffer(name="dedup")
        for _ in range(4000):
            addr = int(rng.integers(0, 700)) * 64  # heavy line reuse
            if rng.random() < 0.3:
                tb.store(addr, DataType.PROPERTY, gap=1)
            else:
                tb.load(addr, DataType.PROPERTY, gap=1)
        trace = tb.finalize()
        num_sets, assoc = 8, 8
        plan = plan_replay(trace, 64, num_sets, assoc)
        lines = plan.lines
        # Oracle A: touch everything.  Oracle B: only plan touches inside
        # guaranteed runs, everything else verbatim.
        a = LRUOracle(num_sets, assoc)
        b = LRUOracle(num_sets, assoc)
        touch = set(plan.touch_index.tolist())
        dirty_rep = set(plan.store_rep_index.tolist())
        stores = ~trace.is_load
        for i in range(len(trace)):
            line = int(lines[i])
            a.access(line, store=bool(stores[i]))
            if plan.guaranteed[i]:
                if i in touch:
                    b.access(line)
                if i in dirty_rep:
                    b.sets[line % num_sets][line]["dirty"] = True
            else:
                b.access(line, store=bool(stores[i]))
        for si in range(num_sets):
            assert a.lru_order(si) == b.lru_order(si)
            for line in a.lru_order(si):
                assert (
                    a.sets[si][line]["dirty"] == b.sets[si][line]["dirty"]
                )


@st.composite
def window_loads(draw):
    n = draw(st.integers(1, 40))
    loads = []
    for ordinal in range(n):
        ref = ordinal  # every reference is a load in this window
        dep = draw(st.sampled_from([-1] + list(range(ref)) if ref else [-1]))
        lat = draw(st.sampled_from([0.0, 0.0, 12.0, 40.0, 200.0]))
        level = "L1" if lat == 0.0 else draw(
            st.sampled_from(["L2", "L3", "DRAM"])
        )
        loads.append((ordinal, ref, dep, level, lat))
    return loads


@st.composite
def mid_trace_windows(draw):
    """A window starting mid-trace with up to two load-queue phases.

    Loads sit at increasing references from ``window_start`` with
    non-load references between them; a dependency names nothing, a
    reference before the window, a non-load inside it or an earlier
    load, which may lie in an earlier phase.
    """
    lq = draw(st.sampled_from([1, 3, 8, 48]))
    window_start = draw(st.integers(1, 500))
    n = draw(st.integers(0, 2 * lq))
    loads = []
    ref = window_start + draw(st.integers(0, 3))
    for ordinal in range(n):
        choice = draw(st.sampled_from(["none", "before", "inside", "load"]))
        if choice == "before":
            dep = draw(st.integers(0, window_start - 1))
        elif choice == "inside" and ref > window_start:
            dep = draw(st.integers(window_start, ref - 1))
        elif choice == "load" and loads:
            dep = draw(st.sampled_from([entry[1] for entry in loads]))
        else:
            dep = -1
        lat = draw(st.sampled_from([0.0, 0.0, 12.0, 40.0, 200.0]))
        level = "L1" if lat == 0.0 else draw(
            st.sampled_from(["L2", "L3", "DRAM"])
        )
        loads.append((ordinal, ref, dep, level, lat))
        ref += 1 + draw(st.integers(0, 3))
    return window_start, lq, loads


class TestSparseTimingParity:
    @settings(max_examples=300, deadline=None)
    @given(window_loads(), st.sampled_from([1, 4, 10]),
           st.sampled_from([None, 3, 8, 48]))
    def test_sparse_equals_dense(self, loads, mshr, lq):
        dense = [(ref, dep, level, lat) for _, ref, dep, level, lat in loads]
        # Prune exactly what the replay engine prunes: zero-latency loads
        # no later load depends on.
        targets = {dep for _, _, dep, _, _ in loads if dep >= 0}
        sparse = [
            entry
            for entry in loads
            if entry[4] > 0.0 or entry[1] in targets
        ]
        refs = np.arange(len(loads), dtype=np.int64)
        a = compute_window_timing(dense, 0, mshr, lq)
        exposed, total, by_level = compute_window_timing_sparse(
            sparse, len(loads), refs, 0, mshr, lq
        )
        assert a.exposed == exposed
        assert a.total_miss_latency == total
        assert a.latency_by_level == by_level
        assert list(a.latency_by_level) == list(by_level)  # fold order

    @settings(max_examples=300, deadline=None)
    @given(mid_trace_windows(), st.sampled_from([1, 4, 10]))
    def test_sparse_equals_dense_mid_trace(self, window, mshr):
        window_start, lq, loads = window
        dense = [(ref, dep, level, lat) for _, ref, dep, level, lat in loads]
        targets = {dep for _, _, dep, _, _ in loads if dep >= 0}
        sparse = [
            entry
            for entry in loads
            if entry[4] > 0.0 or entry[1] in targets
        ]
        refs = np.array([entry[1] for entry in loads], dtype=np.int64)
        a = compute_window_timing(dense, window_start, mshr, lq)
        exposed, total, by_level = compute_window_timing_sparse(
            sparse, len(loads), refs, window_start, mshr, lq
        )
        assert a.exposed == exposed
        assert a.total_miss_latency == total
        assert a.latency_by_level == by_level
        assert list(a.latency_by_level) == list(by_level)
