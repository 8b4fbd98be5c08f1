"""Stream-tracker reuse against the allocator it replaced.

``StreamPrefetcher._allocate`` reuses the LRU tracker's record for the
new page when the table is full.  The previous allocator, which built a
new ``StreamTracker`` for every untracked page and then dropped the LRU
one, is kept below as the oracle: both must emit the same candidates
and keep the same tracker table and counters for any miss/hit stream.
"""

import dataclasses
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefetch import DataAwareStreamer, StreamPrefetcher, StreamTracker
from repro.prefetch import stream as stream_module
from repro.trace import DataType

PAGE_LINES = 8


def oracle_allocate(self, page: int, line: int) -> StreamTracker:
    """The allocator before tracker reuse, on the plain-dict table."""
    tracker = StreamTracker(page=page, last_line=line)
    self._trackers[page] = tracker
    self.tracker_allocations += 1
    if len(self._trackers) > self.num_streams:
        del self._trackers[next(iter(self._trackers))]
        self.tracker_evictions += 1
    return tracker


class OracleStreamer(StreamPrefetcher):
    _allocate = oracle_allocate


class OracleDataAwareStreamer(DataAwareStreamer):
    _allocate = oracle_allocate


PAIRS = [
    (StreamPrefetcher, OracleStreamer),
    (DataAwareStreamer, OracleDataAwareStreamer),
]

#: (is_hit, line, is_structure): lines over four small pages, so that
#: trackers are reused, retrained and evicted within one stream.
ACCESSES = st.lists(
    st.tuples(st.booleans(), st.integers(0, 4 * PAGE_LINES - 1), st.booleans()),
    max_size=120,
)


def _table(pf):
    return [(page, dataclasses.astuple(t)) for page, t in pf._trackers.items()]


def _observe(pf, is_hit, line, is_structure):
    kind = DataType.STRUCTURE if is_structure else DataType.PROPERTY
    observe = pf.observe_hit if is_hit else pf.observe_miss
    return observe(line, kind, is_structure, 0)


class TestTrackerReuse:
    @settings(max_examples=200, deadline=None)
    @given(
        pair=st.sampled_from(PAIRS),
        accesses=ACCESSES,
        num_streams=st.integers(1, 4),
        distance=st.integers(1, 4),
        degree=st.integers(1, 3),
        confirm=st.integers(1, 2),
    )
    def test_same_candidates_counters_and_table_as_the_oracle(
        self, pair, accesses, num_streams, distance, degree, confirm
    ):
        params = dict(
            num_streams=num_streams,
            distance=distance,
            degree=degree,
            confirm=confirm,
            page_lines=PAGE_LINES,
        )
        pf, oracle = pair[0](**params), pair[1](**params)
        for access in accesses:
            assert _observe(pf, *access) == _observe(oracle, *access)
            assert pf.live_trackers == oracle.live_trackers
            assert pf.tracker_allocations == oracle.tracker_allocations
            assert pf.tracker_evictions == oracle.tracker_evictions
            assert _table(pf) == _table(oracle)

    @settings(max_examples=100, deadline=None)
    @given(
        cls=st.sampled_from([StreamPrefetcher, DataAwareStreamer]),
        accesses=ACCESSES,
        num_streams=st.integers(1, 4),
    )
    def test_a_full_table_builds_no_tracker(self, cls, accesses, num_streams):
        built = [0]

        def counting(*args, **kwargs):
            built[0] += 1
            return StreamTracker(*args, **kwargs)

        pf = cls(num_streams=num_streams, page_lines=PAGE_LINES)
        with mock.patch.object(stream_module, "StreamTracker", counting):
            for access in accesses:
                _observe(pf, *access)
                # Every allocation that did not evict built one tracker.
                assert built[0] == pf.tracker_allocations - pf.tracker_evictions
                assert built[0] == pf.live_trackers
