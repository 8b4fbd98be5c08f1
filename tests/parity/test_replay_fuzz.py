"""Property-based fuzz of the batch replay engine against the scalar oracle.

Three fuzz surfaces the hand-built synthetic traces can't cover:

* **prefetch-window boundaries** — randomized segment traces (sequential
  streams, strides, hashed reuse, store bursts, dependency chains) are
  replayed through both paths with the stream prefetcher attached, so
  windows open/close at arbitrary points relative to prefetch fills and
  back-invalidations — also with the streamer filling into a tiny L1,
  so L1 prefetch fills and their victims land inside and between
  guaranteed runs;
* **plan-cache invalidation** — one trace replayed across machines with
  *different L1 geometries* must rebuild its cached replay plan whenever
  the geometry key changes, never reusing tables planned for another
  set/way layout;
* **multi-core interleaving** — a fuzzed trace and a hot loop on two
  cores sharing a small LLC, so cross-core back-invalidations land
  inside the other core's guaranteed runs.

Every example requires a full bit-identical machine signature, not just
matching hit counts.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.droplet.composite import PrefetchSetup
from repro.prefetch.stream import StreamPrefetcher
from repro.system import Machine, SystemConfig
from repro.trace import DataType, TraceBuffer

from .signature import machine_signature, machine_state_signature, stack_signature

KINDS = (DataType.STRUCTURE, DataType.PROPERTY, DataType.INTERMEDIATE)

# (pattern, region, length, kind, gap): pattern 0=ascending stream,
# 1=descending, 2=strided, 3=hashed reuse, 4=store burst, 5=dep chain.
segments = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 7),
        st.integers(4, 48),
        st.integers(0, 2),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=8,
)


def build_trace(segs):
    """Deterministically expand segment tuples into a finalized trace."""
    tb = TraceBuffer(name="fuzz")
    prev = -1
    for pattern, region, length, kind_ix, gap in segs:
        base = region * 512  # line number of the region start
        kind = KINDS[kind_ix]
        for i in range(length):
            if pattern == 0:
                line = base + i
            elif pattern == 1:
                line = base + 511 - i
            elif pattern == 2:
                line = base + (i * 3) % 512
            else:
                line = base + (i * 2654435761) % 97
            addr = line * 64
            if pattern == 4:
                prev = tb.store(addr, kind, gap=gap)
            elif pattern == 5:
                dep = prev if prev >= 0 and i % 2 else -1
                prev = tb.load(addr, kind, dep=dep, gap=gap)
            else:
                prev = tb.load(addr, kind, gap=gap)
    return tb.finalize()


def both_signatures(cfg, trace, setup):
    """Run scalar and fast paths; ``setup`` is a name or a zero-argument
    factory (each machine must get fresh prefetcher state)."""
    sigs = []
    for mode in ("off", "auto"):
        built = setup() if callable(setup) else setup
        m = Machine(cfg, setup=built, fast_path=mode)
        result = m.run(trace)
        if mode == "auto":
            assert result.fast_path == "vector"
        sigs.append(machine_signature(result, m))
    return sigs


class TestPrefetchWindowFuzz:
    @settings(max_examples=40, deadline=None)
    @given(segments)
    def test_stream_setup_bit_identical(self, segs):
        cfg = SystemConfig.scaled_baseline()
        scalar, fast = both_signatures(cfg, build_trace(segs), "stream")
        assert scalar == fast

    @settings(max_examples=15, deadline=None)
    @given(segments)
    def test_ghb_setup_bit_identical(self, segs):
        """Same traces through the GHB prefetcher, whose delta-correlated
        fills land relative to window boundaries very differently from
        the streamer's."""
        cfg = SystemConfig.scaled_baseline()
        scalar, fast = both_signatures(cfg, build_trace(segs), "ghb")
        assert scalar == fast

    @settings(max_examples=25, deadline=None)
    @given(segments)
    def test_l1_filling_stream_bit_identical(self, segs):
        """The streamer prefetch-filling a 2 KiB 2-way L1, with no graph
        layout: prefetched L1 lines, their hits and their victims stress
        the poison set and the undeduped touch replay."""
        cfg = _l1_variant(SystemConfig.scaled_baseline(), 2, 2)
        scalar, fast = both_signatures(
            cfg,
            build_trace(segs),
            lambda: PrefetchSetup(
                "streamL1", StreamPrefetcher(), fill_into_l1=True
            ),
        )
        assert scalar == fast

    @settings(max_examples=25, deadline=None)
    @given(
        segments,
        st.lists(st.integers(0, 4095), min_size=1, max_size=8),
        st.integers(8, 24),
    )
    def test_two_core_interleave_bit_identical(self, segs, hot, gap):
        """Core 0 streams fuzzed segments through a deliberately small
        shared LLC while core 1 loops over a few hot lines for about as
        many cycles.  Core 1's L1 hits never refresh the LLC, so core
        0's fills back-invalidate its hot lines inside its guaranteed
        runs: the fast interleave (one poison set per core) must match
        the oracle interleave per core and in every cache."""
        cfg = _small_shared_llc(SystemConfig.scaled_baseline(num_cores=2))
        tb = TraceBuffer(name="hot", core=1)
        for _ in range(12_000 // (len(hot) * (1 + gap))):
            for line in hot:
                tb.load(line * 64, DataType.PROPERTY, gap=gap)
        traces = [build_trace(segs), tb.finalize()]
        out = []
        for mode in ("off", "auto"):
            m = Machine(cfg, setup="stream", fast_path=mode)
            results = m._interleave(traces)
            out.append(
                (
                    [(r.cycles, stack_signature(r.cycle_stack)) for r in results],
                    machine_state_signature(m),
                )
            )
        assert out[0] == out[1]


def _small_shared_llc(cfg):
    """``cfg`` with a 4 KiB L2 and an 8 KiB LLC that fuzz traces overflow."""
    return dataclasses.replace(
        cfg,
        l2=dataclasses.replace(cfg.l2, size_bytes=4 * 1024),
        l3=dataclasses.replace(cfg.l3, size_bytes=8 * 1024, associativity=8),
    )


def _l1_variant(cfg, size_kib, assoc):
    l1 = dataclasses.replace(cfg.l1, size_bytes=size_kib * 1024,
                             associativity=assoc)
    return dataclasses.replace(cfg, l1=l1)


class TestPlanCacheInvalidationFuzz:
    GEOMETRIES = ((2, 2), (4, 4), (8, 8), (4, 8))

    @settings(max_examples=20, deadline=None)
    @given(segments, st.lists(st.integers(0, 3), min_size=2, max_size=4))
    def test_geometry_changes_rebuild_plan(self, segs, order):
        """Replaying one trace across alternating L1 geometries must
        re-plan per geometry: a plan cached for (sets, ways) of one
        machine is invalid for the next and would corrupt its replay."""
        base = SystemConfig.scaled_baseline()
        trace = build_trace(segs)
        for ix in order:
            cfg = _l1_variant(base, *self.GEOMETRIES[ix])
            scalar, fast = both_signatures(cfg, trace, "stream")
            assert scalar == fast
            cached = getattr(trace, "_replay_tables", None)
            assert cached is not None
            geometry, _tables = cached
            m = Machine(cfg, setup="none", fast_path="auto")
            assert geometry == m._plan_key()

    def test_plan_cache_is_reused_for_same_geometry(self):
        """Same geometry twice → the cached tables object is identical
        (no silent replan), and results still match the oracle."""
        cfg = SystemConfig.scaled_baseline()
        trace = build_trace([(0, 0, 32, 0, 1), (3, 1, 32, 1, 1)])
        Machine(cfg, setup="none", fast_path="auto").run(trace)
        first = trace._replay_tables
        Machine(cfg, setup="none", fast_path="auto").run(trace)
        assert trace._replay_tables[1] is first[1]
        alt = _l1_variant(cfg, 2, 2)
        Machine(alt, setup="none", fast_path="auto").run(trace)
        assert trace._replay_tables[1] is not first[1]
