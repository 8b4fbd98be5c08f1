"""Behavioural tests for the machine's prefetch paths.

These exercise the DROPLET-specific flows with hand-built graphs and
traces: C-bit semantics, the MPP's on-chip copy path, late-prefetch
residual latency, the demand-trigger counterfactual, and multi-property
chasing.
"""

import numpy as np
import pytest

from repro.droplet.composite import PrefetchSetup, make_prefetch_setup
from repro.droplet.mpp import MPPConfig
from repro.graph import build_csr
from repro.memory import GraphLayout
from repro.prefetch.stream import DataAwareStreamer
from repro.system import Machine, SystemConfig
from repro.trace import DataType, TraceBuffer


def make_graph(num_vertices=4096, degree=16, seed=3):
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(num_vertices, dtype=np.int64), degree)
    dst = rng.integers(0, num_vertices, size=len(src), dtype=np.int64)
    return build_csr(num_vertices, np.stack([src, dst], axis=1))


def gather_run(layout, num_edges, prop="prop"):
    """A PR-like gather trace over the layout's structure array."""
    tb = TraceBuffer(name="gather")
    graph = layout.graph
    for j in range(num_edges):
        s = tb.load(layout.structure_addr(j), DataType.STRUCTURE, gap=1)
        v = int(graph.neighbors[j])
        tb.load(layout.property_addr(prop, v), DataType.PROPERTY, dep=s, gap=2)
    return tb.finalize()


@pytest.fixture
def layout():
    return GraphLayout(make_graph(), property_names=("prop", "extra"))


class TestCBitSemantics:
    def test_droplet_chases_only_structure_prefetches(self, layout):
        m = Machine(SystemConfig.scaled_baseline(), layout, "droplet", "prop")
        m.run(gather_run(layout, 4000))
        mpp = m.ledger.counters.get("mpp")
        assert mpp is not None and mpp.issued[DataType.PROPERTY] > 0
        # The data-aware streamer never issued non-structure prefetches,
        # so the MPP never chased garbage.
        ds = m.ledger.counters["dstream"]
        assert ds.issued[DataType.PROPERTY] == 0
        assert ds.issued[DataType.INTERMEDIATE] == 0

    def test_streammpp1_mpp_ignores_property_streams(self, layout):
        """The conventional streamer prefetches property lines too; MPP1's
        address-range check must not chase those."""
        m = Machine(SystemConfig.scaled_baseline(), layout, "streamMPP1", "prop")
        # A property-streaming trace (sequential property access).
        tb = TraceBuffer(name="propstream")
        for v in range(3000):
            tb.load(layout.property_addr("prop", v), DataType.PROPERTY, gap=2)
        m.run(tb.finalize())
        stream = m.ledger.counters.get("stream")
        assert stream is not None
        assert stream.issued[DataType.PROPERTY] > 0  # streamer caught it
        assert "mpp" not in m.ledger.counters or (
            m.ledger.counters["mpp"].total_issued == 0
        )


class TestMPPOnChipPath:
    def test_resident_property_is_copied_not_refetched(self, layout):
        """Property lines already in the LLC take the copy-to-L2 path: no
        DRAM prefetch read is issued for them."""
        graph = layout.graph
        # Narrow neighbor range -> property working set fits the LLC.
        small = build_csr(
            64, np.stack([
                np.repeat(np.arange(64, dtype=np.int64), 16),
                np.tile(np.arange(64, dtype=np.int64), 16),
            ], axis=1),
        )
        small_layout = GraphLayout(small, property_names=("prop",))
        m = Machine(SystemConfig.scaled_baseline(), small_layout, "droplet", "prop")
        trace = gather_run(small_layout, small.num_edges)
        res = m.run(trace)
        mpp = res.ledger.counters["mpp"]
        # Property prefetches were issued (as LLC->L2 copies)...
        assert mpp.issued[DataType.PROPERTY] > 0
        # ...but almost none of them went to DRAM: the DRAM prefetch reads
        # are accounted for by the structure streamer, because the
        # property targets were already on chip and took the copy path.
        dstream = res.ledger.counters["dstream"]
        property_dram_reads = res.dram.stats.prefetch_reads - dstream.total_issued
        assert property_dram_reads < mpp.issued[DataType.PROPERTY]


class TestDemandTriggerCounterfactual:
    def _setup(self, trigger):
        return PrefetchSetup(
            name="droplet-" + trigger,
            l2_prefetcher=DataAwareStreamer(),
            use_mpp=True,
            mpp_config=MPPConfig(identifies_structure=False),
            mpp_trigger=trigger,
        )

    def test_demand_trigger_runs_and_is_not_faster(self):
        # The Table IV claim needs the paper's regime: the property array
        # must exceed the LLC, so prefetch timeliness actually matters.
        big_layout = GraphLayout(
            make_graph(num_vertices=1 << 17, degree=8), property_names=("prop",)
        )
        layout = big_layout
        trace = gather_run(layout, 30_000)
        base = Machine(SystemConfig.scaled_baseline(), layout, "none").run(trace)
        pf = Machine(
            SystemConfig.scaled_baseline(), layout, self._setup("prefetch"), "prop"
        ).run(trace)
        dm = Machine(
            SystemConfig.scaled_baseline(), layout, self._setup("demand"), "prop"
        ).run(trace)
        assert pf.cycles <= dm.cycles
        assert dm.ledger.counters["mpp"].total_issued > 0

    def test_invalid_trigger_rejected(self):
        with pytest.raises(ValueError):
            PrefetchSetup(
                name="x", l2_prefetcher=DataAwareStreamer(), mpp_trigger="sometimes"
            )


class TestMultiProperty:
    def test_machine_accepts_tuple_of_properties(self, layout):
        m = Machine(
            SystemConfig.scaled_baseline(), layout, "droplet", ("prop", "extra")
        )
        trace = gather_run(layout, 3000)
        res = m.run(trace)
        # Two arrays chased: roughly double the generated addresses.
        assert res.mpp.pag.addresses_generated > 0
        assert len(res.mpp.pag.property_bases) == 2


class TestLatePrefetch:
    def test_immediate_demand_pays_residual(self, layout):
        """A demand hitting a just-issued prefetch waits for the fill."""
        m = Machine(SystemConfig.scaled_baseline(), layout, "droplet", "prop")
        res = m.run(gather_run(layout, 6000))
        counters = res.ledger.counters
        total_late = sum(
            sum(c.late.values()) for c in counters.values()
        )
        total_useful = sum(c.total_useful for c in counters.values())
        # Some prefetches are late (structure ones racing the stream) but
        # most are timely.
        assert total_useful > 0
        assert total_late < total_useful
