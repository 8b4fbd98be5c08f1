"""Fuzz the production Cache against the naive LRU oracle.

Randomized operation streams (demand loads/stores, prefetch fills,
back-invalidations) must leave :class:`repro.cache.cache.Cache` and
:class:`tests.parity.oracle.LRUOracle` in identical states: same
hit/miss outcomes, same victims (including dirty-writeback victims),
same prefetch-fill counts, and the same per-set LRU orderings.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache import Cache, CacheConfig
from repro.trace import DataType

from .oracle import LRUOracle

NUM_SETS = 4
ASSOC = 4
LINE = 64


def make_cache() -> Cache:
    return Cache(
        CacheConfig(
            name="fuzz",
            size_bytes=NUM_SETS * ASSOC * LINE,
            associativity=ASSOC,
            line_size=LINE,
        )
    )


# (op, line, flag): op 0=load, 1=store, 2=prefetch fill, 3=invalidate.
ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 23)),
    min_size=1,
    max_size=120,
)


def apply_demand(cache: Cache, line: int, store: bool) -> tuple[bool, object]:
    """One demand access to the bare Cache (the hierarchy's inner steps)."""
    meta = cache.lookup(line)
    if meta is not None:
        if store:
            meta.dirty = True
        return True, None
    victim = cache.insert(line, DataType.PROPERTY, dirty=store)
    return False, victim


class TestCacheVersusOracle:
    @settings(max_examples=200, deadline=None)
    @given(ops)
    def test_same_outcomes_and_final_state(self, stream):
        cache = make_cache()
        oracle = LRUOracle(NUM_SETS, ASSOC)
        dirty_victims: list[int] = []
        for op, line in stream:
            if op in (0, 1):
                hit, victim = apply_demand(cache, line, store=op == 1)
                assert hit == oracle.access(line, store=op == 1)
                if victim is not None and victim[1].dirty:
                    dirty_victims.append(victim[0])
            elif op == 2:
                victim = cache.insert(line, DataType.STRUCTURE, prefetched=True)
                ovictim = oracle.fill(line, prefetched=True)
                assert (victim is None) == (ovictim is None)
                if victim is not None:
                    assert victim[0] == ovictim[0]
                    assert victim[1].dirty == ovictim[1]["dirty"]
                    if victim[1].dirty:
                        dirty_victims.append(victim[0])
            else:
                meta = cache.invalidate(line)
                ometa = oracle.invalidate(line)
                assert (meta is None) == (ometa is None)
                if meta is not None:
                    assert meta.dirty == ometa["dirty"]
                    assert meta.prefetched == ometa["prefetched"]
        # Final state: identical residency, LRU order, and per-line flags.
        for si in range(NUM_SETS):
            expected = oracle.lru_order(si)
            assert list(cache._sets[si]) == expected
            for line in expected:
                got = cache._sets[si][line]
                want = oracle.sets[si][line]
                assert got.dirty == want["dirty"]
                assert got.prefetched == want["prefetched"]
        assert cache.stats.evictions == oracle.evictions
        assert cache.stats.prefetch_fills == oracle.prefetch_fills
        assert dirty_victims == oracle.dirty_evicted

    @settings(max_examples=100, deadline=None)
    @given(ops)
    def test_touch_run_matches_scalar_lookups(self, stream):
        """The batched touch API equals per-access lookups on any state."""
        import copy

        cache = make_cache()
        for op, line in stream:
            if op == 3:
                cache.invalidate(line)
            else:
                apply_demand(cache, line, store=op == 1)
        resident = cache.resident_lines()
        assume(resident)
        # A "run" may touch any resident lines, repeats included.
        run = [resident[(7 * i) % len(resident)] for i in range(len(stream))]
        stores = [i % 3 == 0 for i in range(len(run))]
        batched = copy.deepcopy(cache)
        batched.touch_run(run, stores)
        for line, store in zip(run, stores):
            meta = cache.lookup(line)
            if store:
                meta.dirty = True
        for si in range(NUM_SETS):
            assert list(cache._sets[si]) == list(batched._sets[si])
            for line, meta in cache._sets[si].items():
                assert meta.dirty == batched._sets[si][line].dirty
