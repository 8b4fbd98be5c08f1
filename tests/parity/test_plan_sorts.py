"""The radix-sorted plan helpers against their argsort oracle.

``stable_order`` replaces ``np.argsort(kind="stable")`` in
``previous_occurrences``, ``group_positions`` and
``guaranteed_hit_mask``, and ``plan_replay`` sorts the set indices once.
The fuzz draws every integer dtype, negative values and spans from one
byte to the full 64 bits, and demands the oracle's permutation and
arrays exactly; the plan parity demands every ``ReplayPlan`` field of
the oracle planner (``plan_oracle.py``) on random traces and L1
geometries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.reuse import (
    group_positions,
    guaranteed_hit_mask,
    previous_occurrences,
    stable_order,
)
from repro.trace.buffer import Trace
from repro.trace.plan import plan_replay

from . import plan_oracle as oracle

DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]


@st.composite
def keys(draw):
    """Integer arrays with repeats, over a span of one byte to 64 bits."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    info = np.iinfo(dtype)
    width = draw(st.sampled_from([0, 2**8 - 1, 2**8, 2**16, 2**20, 2**32 + 7, 2**64]))
    lo = draw(st.integers(info.min, info.max))
    hi = min(info.max, lo + width)
    pool = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=12))
    pool += [lo, hi]
    values = draw(st.lists(st.sampled_from(pool), max_size=300))
    return np.array(values, dtype=dtype)


def _same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestSortHelpers:
    @settings(max_examples=400, deadline=None)
    @given(keys())
    def test_stable_order_is_the_stable_argsort(self, values):
        _same(stable_order(values), np.argsort(values, kind="stable"))

    @settings(max_examples=300, deadline=None)
    @given(keys())
    def test_previous_occurrences(self, values):
        _same(previous_occurrences(values), oracle.previous_occurrences(values))

    @settings(max_examples=300, deadline=None)
    @given(keys())
    def test_group_positions(self, values):
        _same(group_positions(values), oracle.group_positions(values))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 2**40), min_size=1, max_size=12).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=300)
        ),
        st.sampled_from([1, 2, 7, 8, 256, 300, 4096, 2**17]),
        st.integers(1, 8),
    )
    def test_guaranteed_hit_mask(self, lines, num_sets, assoc):
        lines = np.array(lines, dtype=np.int64)
        mask, prev, set_prev = guaranteed_hit_mask(
            lines, num_sets, assoc, return_prev=True
        )
        want_mask, want_prev = oracle.guaranteed_hit_mask(lines, num_sets, assoc)
        _same(mask, want_mask)
        _same(prev, want_prev)
        _same(set_prev, oracle.previous_occurrences(lines % num_sets))
        _same(guaranteed_hit_mask(lines, num_sets, assoc), want_mask)

    def test_empty_and_single_element_arrays(self):
        for dtype in DTYPES:
            for values in (np.zeros(0, dtype=dtype), np.ones(1, dtype=dtype)):
                _same(stable_order(values), np.argsort(values, kind="stable"))
                _same(
                    previous_occurrences(values),
                    oracle.previous_occurrences(values),
                )
                _same(group_positions(values), oracle.group_positions(values))

    def test_extreme_values_of_every_dtype(self):
        for dtype in DTYPES:
            info = np.iinfo(dtype)
            values = np.array(
                [info.max, info.min, 0, info.max, info.min, 1, info.max // 2],
                dtype=dtype,
            )
            _same(stable_order(values), np.argsort(values, kind="stable"))


@st.composite
def traces(draw):
    """Random traces: heavy line reuse, a few far lines, loads and stores."""
    n = draw(st.integers(0, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    near = draw(st.integers(1, 200))
    far = draw(st.sampled_from([0, 2**16, 2**33]))
    line_no = rng.integers(0, near, n)
    if far:
        jump = rng.random(n) < 0.1
        line_no[jump] += rng.integers(0, far, int(jump.sum()))
    addr = line_no * 64 + rng.integers(0, 64, n)
    dep = np.full(n, -1, dtype=np.int64)
    if n > 1:
        has = rng.random(n) < 0.4
        has[0] = False
        idx = np.flatnonzero(has)
        dep[idx] = (rng.random(len(idx)) * idx).astype(np.int64)
    return Trace(
        addr=addr.astype(np.int64),
        kind=rng.integers(0, 3, n).astype(np.int8),
        is_load=rng.random(n) < 0.7,
        dep=dep,
        gap=rng.integers(0, 4, n).astype(np.int32),
    )


class TestPlanParity:
    @settings(max_examples=200, deadline=None)
    @given(
        traces(),
        st.sampled_from([32, 64]),
        st.sampled_from([1, 2, 8, 64, 257, 512, 4096]),
        st.sampled_from([1, 2, 4, 8]),
    )
    def test_plan_matches_the_argsort_planner(self, trace, line_size, num_sets, assoc):
        got = plan_replay(trace, line_size, num_sets, assoc)
        want = oracle.plan_replay(trace, line_size, num_sets, assoc)
        for name, value in vars(want).items():
            mine = getattr(got, name)
            if isinstance(value, np.ndarray):
                _same(mine, value)
            elif isinstance(value, dict):
                assert list(mine) == list(value)
                for k in value:
                    _same(mine[k], value[k])
            else:
                assert mine == value
