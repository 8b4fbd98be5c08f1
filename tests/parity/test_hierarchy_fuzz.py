"""Fuzz the production CacheHierarchy against the naive hierarchy oracle.

The batch-replay engine and the scalar oracle share one fill core, so
fast-versus-oracle parity no longer cross-checks it.  Here random
streams of demand loads and stores, prefetch fills (with and without
the L1) and LLC→L2 copies drive :class:`repro.cache.CacheHierarchy` and
:class:`tests.parity.oracle.HierarchyOracle` side by side.  After every
operation both must agree on the access outcome, the events emitted
(in order), every level's counters, every set's LRU order and line
flags, and each core's poison set.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, CacheHierarchy

from .oracle import HierarchyOracle

LINE = 64
LINES = 16

#: (L1, L2 or None, L3) as (num_sets, associativity) pairs: tiny, so that
#: every eviction, inclusion and dirty-merge rule fires within a stream.
GEOMETRIES = [
    ((2, 2), (2, 2), (4, 2)),
    ((1, 2), (2, 2), (2, 4)),
    ((2, 1), (4, 2), (4, 4)),
    ((2, 2), None, (4, 2)),
    ((1, 2), None, (2, 2)),
]


def make_stream(seed: int, length: int) -> list[tuple[int, int, int, int]]:
    """A uniform random stream of ``(op, core, line, kind)`` operations.

    op 0 = load, 1 = store, 2 = prefetch fill, 3 = prefetch fill into the
    L1, 4 = LLC→L2 copy.  Drawn from a seeded generator rather than from
    Hypothesis lists: the rules under test need multi-step patterns (a
    prefetch, a demand touch of it, then two more fills into its set),
    which short shrink-biased lists almost never contain.  Hypothesis
    still picks and shrinks the seed and the length.
    """
    rng = random.Random(seed)
    return [
        (rng.randrange(5), rng.randrange(2), rng.randrange(LINES), rng.randrange(3))
        for _ in range(length)
    ]


def _config(name, geometry):
    num_sets, assoc = geometry
    return CacheConfig(name, num_sets * assoc * LINE, assoc, LINE)


def _levels(h, oracle):
    """Pairs of (production Cache, oracle level), every level and core."""
    pairs = list(zip(h.l1s, oracle.l1))
    if h.l2s is not None:
        pairs += list(zip(h.l2s, oracle.l2))
    return pairs + [(h.l3, oracle.l3)]


def _assert_same_state(h, oracle):
    for cache, level in _levels(h, oracle):
        st_ = cache.stats
        assert [st_.hits[k] for k in sorted(st_.hits)] == level.kind_hits
        assert [st_.misses[k] for k in sorted(st_.misses)] == level.kind_misses
        assert st_.prefetch_hits == level.prefetch_hits
        assert st_.prefetch_fills == level.prefetch_fills
        assert st_.evictions == level.evictions
        assert st_.back_invalidations == level.back_invalidations
        for got, want in zip(cache._sets, level.sets):
            assert [
                (line, m.dirty, m.prefetched, m.used, m.kind)
                for line, m in got.items()
            ] == [
                (line, m["dirty"], m["prefetched"], m["used"], m["kind"])
                for line, m in want.items()
            ]
    assert h.l1_inval_logs == oracle.poison


class TestHierarchyVersusOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        geometry=st.sampled_from(GEOMETRIES),
        num_cores=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(1, 150),
    )
    def test_same_outcomes_events_counters_and_contents(
        self, geometry, num_cores, seed, length
    ):
        l1, l2, l3 = geometry
        configs = (
            _config("L1", l1),
            _config("L2", l2) if l2 else None,
            _config("L3", l3),
        )
        h = CacheHierarchy(*configs, num_cores)
        h.l1_inval_logs = [set() for _ in range(num_cores)]
        # A second hierarchy with only the events DRAM and the ledger
        # act on: its stream must be the full one, filtered.
        lean = CacheHierarchy(*configs, num_cores)
        lean.trace_evictions = False
        oracle = HierarchyOracle(l1, l2, l3, num_cores, poison=True)
        for op, core, line, kind in make_stream(seed, length):
            core %= num_cores
            if op <= 1:
                out = h.demand_access(core, line, kind, is_store=op == 1)
                lean.demand_access(core, line, kind, is_store=op == 1)
                want = oracle.demand(core, line, kind, store=op == 1)
                assert (out.level, out.prefetched, out.first_use_of_prefetch) == want
            elif op <= 3:
                h.prefetch_fill(core, line, kind, into_l1=op == 3)
                lean.prefetch_fill(core, line, kind, into_l1=op == 3)
                oracle.prefetch(core, line, kind, into_l1=op == 3)
            else:
                copied = h.copy_to_l2(core, line, kind)
                lean.copy_to_l2(core, line, kind)
                assert copied == oracle.copy_to_l2(core, line, kind)
            events = [tuple(ev) for ev in h.drain_events()]
            assert events == oracle.events
            assert [tuple(ev) for ev in lean.drain_events()] == [
                ev
                for ev in events
                if ev[0] == "writeback" or (ev[0], ev[2]) == ("evict_unused_pf", "L3")
            ]
            oracle.events.clear()
            _assert_same_state(h, oracle)
