"""Steady-state fills allocate nothing: the fill core reuses victims.

A fill into a full set hands its LRU victim's ``CacheLine`` record to
the incoming line, so a record is built only for a free way: a cold set,
or a way a back-invalidation opened.  Records leave the hierarchy only
through back-invalidation, so, summed over every level, the records
built equal the resident lines plus the back-invalidated ones.  The
streams below are those of ``tests/parity/test_hierarchy_fuzz.py``,
which checks the same fill core against the naive oracle; here they
check the construction identity and that no record is shared by two
set entries.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheHierarchy
from repro.cache import hierarchy as hierarchy_module
from repro.runtime import TraceSpec
from repro.system.runner import simulate

from ..parity.test_hierarchy_fuzz import GEOMETRIES, _config, make_stream


@contextmanager
def counted_lines():
    """Count the ``CacheLine`` records the fill core builds."""
    built = [0]
    real = hierarchy_module.CacheLine

    def counting(*args, **kwargs):
        built[0] += 1
        return real(*args, **kwargs)

    with mock.patch.object(hierarchy_module, "CacheLine", counting):
        yield built


def _caches(h):
    return list(h.l1s) + list(h.l2s or ()) + [h.l3]


def _resident_plus_back_invalidated(h):
    return sum(
        c.occupancy() + c.stats.back_invalidations for c in _caches(h)
    )


def _assert_no_shared_records(h):
    records = [id(meta) for c in _caches(h) for s in c._sets for meta in s.values()]
    assert len(set(records)) == len(records)


class TestFillCoreReuse:
    @settings(max_examples=200, deadline=None)
    @given(
        geometry=st.sampled_from(GEOMETRIES),
        num_cores=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        length=st.integers(1, 150),
    )
    def test_records_built_equal_resident_plus_back_invalidated(
        self, geometry, num_cores, seed, length
    ):
        l1, l2, l3 = geometry
        h = CacheHierarchy(
            _config("L1", l1),
            _config("L2", l2) if l2 else None,
            _config("L3", l3),
            num_cores,
        )
        h.l1_inval_logs = [set() for _ in range(num_cores)]
        with counted_lines() as built:
            for op, core, line, kind in make_stream(seed, length):
                core %= num_cores
                if op <= 1:
                    h.demand_access(core, line, kind, is_store=op == 1)
                elif op <= 3:
                    h.prefetch_fill(core, line, kind, into_l1=op == 3)
                else:
                    h.copy_to_l2(core, line, kind)
                _assert_no_shared_records(h)
                assert built[0] == _resident_plus_back_invalidated(h)


def test_replay_builds_records_only_for_free_ways():
    """A whole fast-path replay keeps the identity, MPP chase included."""
    run = TraceSpec("PR", "kron", max_refs=40_000, scale_shift=-3).trace()
    with counted_lines() as built:
        result = simulate(run, setup="droplet")
    h = result.hierarchy
    assert result.fast_path == "vector"
    assert sum(c.stats.evictions for c in _caches(h)) > built[0]
    assert built[0] == _resident_plus_back_invalidated(h)
    _assert_no_shared_records(h)
