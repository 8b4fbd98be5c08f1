"""Unit tests for TraceBuffer / Trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import NO_DEP, DataType, Trace, TraceBuffer, TraceFull


class TestTraceBuffer:
    def test_append_returns_indices(self):
        tb = TraceBuffer()
        assert tb.load(0, DataType.STRUCTURE) == 0
        assert tb.store(4, DataType.PROPERTY) == 1
        assert len(tb) == 2

    def test_capacity_enforced(self):
        tb = TraceBuffer(capacity=2)
        tb.load(0, DataType.STRUCTURE)
        tb.load(4, DataType.STRUCTURE)
        assert tb.full
        with pytest.raises(TraceFull):
            tb.load(8, DataType.STRUCTURE)

    def test_zero_capacity(self):
        tb = TraceBuffer(capacity=0)
        with pytest.raises(TraceFull):
            tb.load(0, DataType.STRUCTURE)

    def test_dep_must_be_earlier(self):
        tb = TraceBuffer()
        tb.load(0, DataType.STRUCTURE)
        with pytest.raises(ValueError):
            tb.load(4, DataType.PROPERTY, dep=1)  # self-dep

    def test_finalize_arrays(self):
        tb = TraceBuffer(name="t")
        a = tb.load(0, DataType.STRUCTURE, gap=2)
        tb.load(100, DataType.PROPERTY, dep=a, gap=3)
        t = tb.finalize()
        assert t.name == "t"
        assert t.num_refs == 2
        assert t.num_instructions == 2 + 2 + 3
        assert t.dep[1] == 0
        assert t.kind.dtype == np.int8

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=-1)


class TestPhaseMarkers:
    def test_mark_phase_records_next_ref_index(self):
        tb = TraceBuffer()
        tb.mark_phase("iteration:0")
        tb.load(0, DataType.STRUCTURE)
        tb.load(4, DataType.STRUCTURE)
        tb.mark_phase("iteration:1")
        tb.load(8, DataType.STRUCTURE)
        assert tb.finalize().phases == [(0, "iteration:0"), (2, "iteration:1")]

    def test_marker_at_end_of_budget_is_kept(self):
        tb = TraceBuffer(capacity=1)
        tb.load(0, DataType.STRUCTURE)
        tb.mark_phase("tail")
        t = tb.finalize()
        assert t.phases == [(1, "tail")]  # index == len(trace) is legal

    def test_skip_window_markers_collapse_keep_last(self):
        tb = TraceBuffer(skip=2)
        tb.mark_phase("warmup:0")
        tb.load(0, DataType.STRUCTURE)
        tb.mark_phase("warmup:1")
        tb.load(4, DataType.STRUCTURE)
        tb.mark_phase("recorded")
        tb.load(8, DataType.STRUCTURE)
        # Both warm-up markers land at recorded index 0; only the last
        # same-index marker survives, so the trace opens in "recorded".
        assert tb.finalize().phases == [(0, "recorded")]

    def test_trace_validates_marker_ordering_and_range(self):
        def one_ref(phases):
            return Trace(
                addr=np.array([0], dtype=np.int64),
                kind=np.array([0], dtype=np.int8),
                is_load=np.array([True]),
                dep=np.array([NO_DEP], dtype=np.int64),
                gap=np.array([0], dtype=np.int32),
                phases=phases,
            )

        with pytest.raises(ValueError, match="outside trace"):
            one_ref([(5, "late")])
        with pytest.raises(ValueError, match="sorted"):
            one_ref([(1, "b"), (0, "a")])
        assert one_ref([(0, "a"), (1, "b")]).phases == [(0, "a"), (1, "b")]

    def test_slice_rebases_and_filters_markers(self):
        tb = TraceBuffer()
        for label, refs in (("a", 2), ("b", 2), ("c", 2)):
            tb.mark_phase(label)
            for _ in range(refs):
                tb.load(0, DataType.STRUCTURE)
        t = tb.finalize()
        assert t.slice(2, 6).phases == [(0, "b"), (2, "c")]
        # A marker at index == stop marks a boundary at the slice edge
        # and is kept; markers strictly outside are dropped.
        assert t.slice(3, 4).phases == [(1, "c")]
        assert t.slice(0, 2).phases == [(0, "a"), (2, "b")]
        assert t.slice(3, 3).phases == []


class TestSkip:
    def test_skip_drops_leading_refs(self):
        tb = TraceBuffer(skip=2)
        for i in range(4):
            tb.load(i * 4, DataType.STRUCTURE)
        t = tb.finalize()
        assert t.num_refs == 2
        assert list(t.addr) == [8, 12]

    def test_skip_rebases_deps(self):
        tb = TraceBuffer(skip=2)
        a = tb.load(0, DataType.STRUCTURE)   # skipped
        b = tb.load(4, DataType.STRUCTURE)   # skipped
        c = tb.load(8, DataType.STRUCTURE, dep=a)   # dep on skipped -> NO_DEP
        tb.load(100, DataType.PROPERTY, dep=c)      # dep on recorded -> 0
        t = tb.finalize()
        assert t.dep[0] == NO_DEP
        assert t.dep[1] == 0

    def test_capacity_counts_recorded_only(self):
        tb = TraceBuffer(capacity=2, skip=3)
        for i in range(5):
            tb.load(i, DataType.STRUCTURE)
        assert tb.full
        with pytest.raises(TraceFull):
            tb.load(99, DataType.STRUCTURE)

    def test_negative_skip_rejected(self):
        with pytest.raises(ValueError):
            TraceBuffer(skip=-1)


class TestTrace:
    def _trace(self):
        tb = TraceBuffer()
        a = tb.load(0, DataType.STRUCTURE, gap=1)
        tb.load(100, DataType.PROPERTY, dep=a, gap=2)
        tb.store(200, DataType.INTERMEDIATE, gap=0)
        return tb.finalize()

    def test_parallel_arrays_required(self):
        with pytest.raises(ValueError):
            Trace(
                addr=np.zeros(2, dtype=np.int64),
                kind=np.zeros(1, dtype=np.int8),
                is_load=np.ones(2, dtype=bool),
                dep=np.full(2, NO_DEP),
                gap=np.zeros(2, dtype=np.int32),
            )

    def test_counts(self):
        t = self._trace()
        assert t.num_loads == 2
        assert len(t) == 3

    def test_ref_materialization(self):
        t = self._trace()
        r = t.ref(1)
        assert r.kind is DataType.PROPERTY
        assert r.dep == 0
        assert r.addr == 100

    def test_refs_iterates_all(self):
        t = self._trace()
        assert [r.index for r in t.refs()] == [0, 1, 2]

    def test_slice_rebases_deps(self):
        t = self._trace()
        s = t.slice(1, 3)
        assert len(s) == 2
        assert s.dep[0] == NO_DEP  # producer fell outside the slice


def _fill(tb, refs, block):
    """Record ``refs`` through ``extend`` (``block``) or one ``append`` each.

    Returns the error that stopped recording, as ``(type, message)``.
    """
    try:
        if block:
            columns = [np.array(column) for column in zip(*refs)] if refs else [[]] * 5
            tb.extend(*columns)
        else:
            for addr, kind, is_load, dep, gap in refs:
                tb.append(addr, DataType(kind), is_load=is_load, dep=dep, gap=gap)
    except (TraceFull, ValueError) as error:
        return type(error), str(error)
    return None


@st.composite
def _block_cases(draw):
    """Single appends, then a block, then more single appends.

    Dependencies mostly point back to an earlier reference (or none);
    with ``invalid`` some point at the reference itself or later.
    """
    lead = draw(st.integers(0, 4))
    size = draw(st.integers(0, 10))
    tail = draw(st.integers(0, 3))
    invalid = draw(st.booleans())
    refs = []
    for v in range(lead + size + tail):
        upper = v + 2 if invalid else v - 1
        dep = draw(st.integers(-1, upper)) if upper >= 0 else NO_DEP
        refs.append((
            draw(st.integers(0, 1 << 40)),
            draw(st.sampled_from([int(kind) for kind in DataType])),
            draw(st.booleans()),
            dep,
            draw(st.integers(0, 5)),
        ))
    capacity = draw(st.one_of(st.none(), st.integers(0, lead + size + tail + 1)))
    skip = draw(st.integers(0, lead + size + tail + 2))
    return refs[:lead], refs[lead : lead + size], refs[lead + size :], capacity, skip


class TestExtend:
    @given(_block_cases())
    @settings(max_examples=400, deadline=None)
    def test_block_finalizes_like_single_appends(self, case):
        lead, block, tail, capacity, skip = case
        buffers = []
        for as_block in (True, False):
            tb = TraceBuffer(capacity=capacity, skip=skip, name="t")
            tb.mark_phase("lead")
            error = _fill(tb, lead, block=False)
            if error is None:
                tb.mark_phase("block")
                error = _fill(tb, block, block=as_block)
            if error is None:
                tb.mark_phase("tail")
                error = _fill(tb, tail, block=False)
            buffers.append((tb, error))
        (tb, error), (oracle, oracle_error) = buffers
        assert error == oracle_error
        assert (len(tb), tb.next_index, tb.full) == (
            len(oracle),
            oracle.next_index,
            oracle.full,
        )
        got, want = tb.finalize(), oracle.finalize()
        for name in ("addr", "kind", "is_load", "dep", "gap"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.phases == want.phases

    @pytest.mark.parametrize("dep", [3, 4])  # the reference itself, then later
    def test_forward_or_self_dependency_rejected(self, dep):
        tb = TraceBuffer()
        tb.load(0, DataType.STRUCTURE)
        with pytest.raises(ValueError, match="dep %d out of range for index 3" % dep):
            tb.extend(
                np.array([4, 8, 12]),
                np.full(3, int(DataType.PROPERTY)),
                np.ones(3, dtype=bool),
                np.array([0, NO_DEP, dep]),
                np.zeros(3),
            )
        # The references before the offending one stay recorded.
        assert len(tb) == 3 and tb.next_index == 3
        assert list(tb.finalize().addr) == [0, 4, 8]

    @pytest.mark.parametrize("skip", [0, 5])
    def test_zero_capacity_raises_before_recording(self, skip):
        tb = TraceBuffer(capacity=0, skip=skip)
        with pytest.raises(TraceFull):
            tb.extend(
                np.array([0, 4]),
                np.zeros(2),
                np.ones(2, dtype=bool),
                np.full(2, NO_DEP),
                np.zeros(2),
            )
        assert len(tb) == 0 and tb.next_index == 0

    def test_block_arrays_must_be_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            TraceBuffer().extend(
                np.zeros(2),
                np.zeros(2),
                np.ones(1, dtype=bool),
                np.zeros(2),
                np.zeros(2),
            )
