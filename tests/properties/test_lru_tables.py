"""LRU and FIFO tables against independent reference models.

The stream tracker table, the TLB and the MTLB keep their LRU order in
plain dicts (first key least recently used).  The replay paths share
these tables, so the parity suites cannot see a slip in that order;
these tests drive each table and an ``OrderedDict`` model with the same
operations and, after every step, demand the same residents in the
same LRU→MRU order.  The two tables that drop their oldest entry on
most inserts, the pollution shadow sets and the GHB index, are
``OrderedDict`` FIFOs; they are checked the same way against a FIFO
on a plain list.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.droplet import MPP, MPPConfig
from repro.graph import build_csr
from repro.memory import TLB, GraphLayout, PageFault, PageTable
from repro.prefetch import (
    DataAwareStreamer,
    GHBPrefetcher,
    StreamPrefetcher,
    StreamTracker,
)
from repro.prefetch.stats import PollutionTracker, PrefetchLedger
from repro.trace import DataType

PAGE_LINES = 8


class OrderedStreamerMixin:
    """The tracker table on an ``OrderedDict``, as it was kept before."""

    def __init__(self, **params):
        super().__init__(**params)
        self._trackers = OrderedDict()

    def _allocate(self, page, line):
        trackers = self._trackers
        self.tracker_allocations += 1
        if len(trackers) >= self.num_streams:
            tracker = trackers.popitem(last=False)[1]
            self.tracker_evictions += 1
            tracker.page = page
            tracker.last_line = line
            tracker.direction = 0
            tracker.confidence = 0
            tracker.active = False
            tracker.next_prefetch = 0
        else:
            tracker = StreamTracker(page, line)
        trackers[page] = tracker
        return tracker

    def observe_miss(self, line, kind, is_structure, core):
        if self.trains_structure_only and not is_structure:
            return []
        page = line // self.page_lines
        tracker = self._trackers.get(page)
        if tracker is None:
            self._allocate(page, line)
            return []
        self._trackers.move_to_end(page)
        return self._advance(tracker, line)

    def observe_hit(self, line, kind, is_structure, core):
        if self.trains_structure_only and not is_structure:
            return []
        page = line // self.page_lines
        tracker = self._trackers.get(page)
        if tracker is None or not tracker.active:
            return []
        self._trackers.move_to_end(page)
        return self._advance(tracker, line)


class OrderedStreamer(OrderedStreamerMixin, StreamPrefetcher):
    pass


class OrderedDataAwareStreamer(OrderedStreamerMixin, DataAwareStreamer):
    pass


def _tracker_table(pf):
    return [
        (page, t.last_line, t.direction, t.confidence, t.active, t.next_prefetch)
        for page, t in pf._trackers.items()
    ]


class TestStreamTrackerTable:
    @settings(max_examples=200, deadline=None)
    @given(
        pair=st.sampled_from(
            [
                (StreamPrefetcher, OrderedStreamer),
                (DataAwareStreamer, OrderedDataAwareStreamer),
            ]
        ),
        # (is_hit, line, is_structure) over six small pages, so a table
        # of one to four trackers refreshes, evicts and retrains.
        accesses=st.lists(
            st.tuples(
                st.booleans(), st.integers(0, 6 * PAGE_LINES - 1), st.booleans()
            ),
            max_size=150,
        ),
        num_streams=st.integers(1, 4),
        confirm=st.integers(1, 2),
    )
    def test_same_trackers_in_the_same_lru_order(
        self, pair, accesses, num_streams, confirm
    ):
        params = dict(
            num_streams=num_streams,
            distance=4,
            degree=2,
            confirm=confirm,
            page_lines=PAGE_LINES,
        )
        pf, model = pair[0](**params), pair[1](**params)
        for is_hit, line, is_structure in accesses:
            kind = DataType.STRUCTURE if is_structure else DataType.PROPERTY
            name = "observe_hit" if is_hit else "observe_miss"
            got = getattr(pf, name)(line, kind, is_structure, 0)
            want = getattr(model, name)(line, kind, is_structure, 0)
            assert got == want
            assert _tracker_table(pf) == _tracker_table(model)
            assert pf.tracker_evictions == model.tracker_evictions


class TLBModel:
    """Fully associative LRU TLB on an ``OrderedDict``."""

    def __init__(self, page_table: PageTable, capacity: int, walk_latency: int):
        self.page_table = page_table
        self.capacity = capacity
        self.walk_latency = walk_latency
        self.entries: OrderedDict[int, object] = OrderedDict()

    def translate(self, vaddr: int):
        page = vaddr // self.page_table.page_size
        if page in self.entries:
            self.entries.move_to_end(page)
            latency = 0
        else:
            pte = self.page_table.lookup(vaddr)  # may raise PageFault
            self.entries[page] = pte
            if len(self.entries) > self.capacity:
                self.entries.popitem(last=False)
            latency = self.walk_latency
        pte = self.entries[page]
        offset = vaddr % self.page_table.page_size
        return pte.frame * self.page_table.page_size + offset, pte.is_structure, latency

    def invalidate(self, page: int) -> bool:
        return self.entries.pop(page, None) is not None


PAGE = 4096
MAPPED_PAGES = 6


def _page_table() -> PageTable:
    pt = PageTable(PAGE)
    pt.map_range(0, 4 * PAGE, is_structure=False)
    pt.map_range(4 * PAGE, 2 * PAGE, is_structure=True)
    return pt  # pages 6 and 7 stay unmapped and fault


class TestTLB:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("translate"),
                    st.integers(0, (MAPPED_PAGES + 2) * PAGE - 1),
                ),
                st.tuples(st.just("invalidate"), st.integers(0, MAPPED_PAGES + 1)),
            ),
            max_size=150,
        ),
        capacity=st.integers(1, 4),
    )
    def test_same_entries_in_the_same_lru_order(self, ops, capacity):
        pt = _page_table()
        tlb = TLB(pt, entries=capacity, walk_latency=50)
        model = TLBModel(pt, capacity, walk_latency=50)
        for op, arg in ops:
            if op == "invalidate":
                assert tlb.invalidate_page(arg) == model.invalidate(arg)
            else:
                try:
                    want = model.translate(arg)
                except PageFault:
                    before = tlb.resident_pages()
                    try:
                        tlb.translate(arg)
                    except PageFault:
                        pass
                    else:
                        raise AssertionError("no fault at %#x" % arg)
                    assert tlb.resident_pages() == before
                else:
                    assert tlb.translate(arg) == want
            assert tlb.resident_pages() == list(model.entries)


class TestMPPRefresh:
    """The MPP's fused all-hit refresh against per-address LRU touches."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        fills=st.lists(st.integers(0, 63), min_size=1, max_size=30),
        mtlb_entries=st.integers(1, 6),
        spread=st.integers(1, 4),
        vab_entries=st.integers(1, 16),
    )
    def test_mtlb_order_matches_per_address_touches(
        self, seed, fills, mtlb_entries, spread, vab_entries
    ):
        # 8192 four-byte ranks span eight property pages; neighbors fall
        # in ``spread`` of them, so once they are cached a scan takes the
        # fused all-hit path over several pages (or, cut short by a small
        # VAB, over one).
        num_vertices = 8192
        rng = np.random.default_rng(seed)
        pages = rng.choice(8, size=spread, replace=False)
        dst = rng.choice(pages, 1024) * 1024 + rng.integers(0, 1024, 1024)
        edges = np.stack([rng.integers(0, num_vertices, 1024), dst], axis=1)
        layout = GraphLayout(build_csr(num_vertices, edges), property_names=("rank",))
        mpp = MPP(
            layout.space.page_table,
            MPPConfig(mtlb_entries=mtlb_entries, vab_entries=vab_entries),
        )
        mpp.configure_from_layout(layout, "rank")
        tlb = mpp.mtlb._tlb
        model = TLBModel(tlb.page_table, mtlb_entries, tlb.walk_latency)
        first = layout.structure.base // 64
        last = (layout.structure.base + layout.structure.size - 1) // 64
        for offset in fills:
            line = first + offset % (last - first + 1)
            vaddrs = mpp.pag.scan(line * 64, 64)[: mpp.config.vab_entries]
            mpp.scan_targets(line, 0)
            for vaddr in vaddrs:
                model.translate(vaddr)
            assert tlb.resident_pages() == list(model.entries)


class FIFOModel:
    """A bounded FIFO of distinct keys on a plain list, oldest first."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.items: list[tuple] = []

    def pop(self, key, default=None):
        for n, (k, value) in enumerate(self.items):
            if k == key:
                del self.items[n]
                return value
        return default

    def push(self, key, value) -> None:
        """Insert ``key`` as the newest; drop the oldest past capacity."""
        self.pop(key)
        self.items.append((key, value))
        if len(self.items) > self.capacity:
            self.items.pop(0)


class TestPollutionShadowSets:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["evict", "fill", "miss"]),
                st.sampled_from(["L2", "L3", "L1"]),
                st.integers(0, 12),
                st.sampled_from([None, "stream", "mpp"]),
            ),
            max_size=200,
        ),
        caps=st.tuples(st.integers(1, 5), st.integers(1, 8)),
    )
    def test_shadow_sets_are_bounded_fifos(self, ops, caps):
        capacities = {"L2": caps[0], "L3": caps[1]}
        ledger = PrefetchLedger()
        tracker = PollutionTracker(ledger, capacities)
        models = {level: FIFOModel(cap) for level, cap in capacities.items()}
        misses = {level: 0 for level in capacities}
        for op, level, line, issuer in ops:
            model = models.get(level)
            if op == "evict":
                tracker.on_prefetch_eviction(level, line, issuer)
                if model is not None:
                    model.push(line, issuer or "unknown")
            elif op == "fill":
                tracker.on_fill(level, line)
                if model is not None:
                    model.pop(line)
            else:
                blamed = tracker.on_demand_miss(level, line, DataType.PROPERTY)
                want = model is not None and model.pop(line) is not None
                assert blamed == want
                misses[level] = misses.get(level, 0) + want
            for name, fifo in models.items():
                assert list(tracker._sets[name].items()) == fifo.items
        assert tracker.misses == {level: misses[level] for level in capacities}


class GHBModel:
    """G/DC GHB with its history as a plain list and its index a FIFOModel."""

    def __init__(self, index_size: int, buffer_size: int, degree: int):
        self.index = FIFOModel(index_size)
        self.history: list[int] = []
        self.buffer_size = buffer_size
        self.degree = degree
        self.last_line = None
        self.last_delta = None

    def _live(self, seq: int) -> bool:
        count = len(self.history)
        return 0 <= seq < count and seq >= count - self.buffer_size

    def observe_miss(self, line: int) -> list[int]:
        out: list[int] = []
        if self.last_line is not None:
            delta = line - self.last_line
            if self.last_delta is not None:
                key = (self.last_delta, delta)
                prev = self.index.pop(key, -1)
                self.index.push(key, len(self.history))
                self.history.append(line)
                if self._live(prev):
                    addr, walk = line, prev
                    for _ in range(self.degree):
                        if not self._live(walk + 1):
                            break
                        addr += self.history[walk + 1] - self.history[walk]
                        if addr > 0:
                            out.append(addr)
                        walk += 1
            self.last_delta = delta
        self.last_line = line
        return out


class TestGHBIndex:
    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 24), max_size=200),
        index_size=st.integers(1, 6),
        buffer_size=st.integers(1, 12),
        degree=st.integers(1, 4),
    )
    def test_index_is_a_bounded_fifo(self, lines, index_size, buffer_size, degree):
        ghb = GHBPrefetcher(index_size, buffer_size, degree)
        model = GHBModel(index_size, buffer_size, degree)
        for line in lines:
            got = ghb.observe_miss(line, DataType.PROPERTY, False, 0)
            assert got == model.observe_miss(line)
            assert list(ghb._index.items()) == model.index.items
