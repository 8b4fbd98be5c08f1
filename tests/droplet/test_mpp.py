"""Unit tests for the MC-based Property Prefetcher."""

import numpy as np

from repro.droplet import MPP, MPPConfig
from repro.graph import build_csr
from repro.memory import GraphLayout


def make_mpp(weighted=False, identifies=False, num_vertices=64, degree=16):
    edges = [(0, (7 * i) % num_vertices) for i in range(degree)]
    g = build_csr(num_vertices, np.array(edges))
    layout = GraphLayout(g, property_names=("rank",))
    mpp = MPP(
        layout.space.page_table,
        MPPConfig(identifies_structure=identifies),
    )
    mpp.configure_from_layout(layout, "rank")
    return mpp, layout, g


class TestStructureFill:
    def test_generates_property_requests(self):
        mpp, layout, g = make_mpp()
        line = layout.structure.base // 64
        targets = mpp.scan_targets(line, core=1)
        assert targets
        prop = layout.properties["rank"]
        expected_lines = {
            (prop.base + 4 * int(v)) // 64 for v in g.neighbors[:16]
        }
        assert set(targets) == expected_lines

    def test_requests_deduplicated_per_line(self):
        # All neighbors share one property cache line.
        edges = [(0, i) for i in range(16)]
        g = build_csr(64, np.array(edges))
        layout = GraphLayout(g, property_names=("rank",))
        mpp = MPP(layout.space.page_table)
        mpp.configure_from_layout(layout, "rank")
        targets = mpp.scan_targets(layout.structure.base // 64, 0)
        assert len(targets) == 1

    def test_issue_delay_includes_pipeline_stages(self):
        mpp, layout, _ = make_mpp()
        targets = mpp.scan_targets(layout.structure.base // 64, 0)
        cfg = mpp.config
        minimum = cfg.pag.scan_latency + cfg.coherence_check_latency
        assert all(delay >= minimum for delay in targets.values())
        # First touches include the MTLB page-walk latency.
        assert any(delay > minimum for delay in targets.values())

    def test_unconfigured_mpp_ignores_fills(self):
        g = build_csr(4, np.array([(0, 1)]))
        layout = GraphLayout(g)
        mpp = MPP(layout.space.page_table)
        assert mpp.scan_targets(layout.structure.base // 64, 0) == {}

    def test_counters(self):
        mpp, layout, _ = make_mpp()
        mpp.scan_targets(layout.structure.base // 64, 0)
        assert mpp.structure_fills_seen == 1
        assert mpp.requests_generated > 0


class TestMPP1Identification:
    def test_plain_mpp_does_not_classify(self):
        mpp, layout, _ = make_mpp(identifies=False)
        assert not mpp.classifies_as_structure(layout.structure.base // 64)

    def test_mpp1_classifies_structure_lines(self):
        mpp, layout, _ = make_mpp(identifies=True)
        assert mpp.classifies_as_structure(layout.structure.base // 64)
        assert not mpp.classifies_as_structure(
            layout.properties["rank"].base // 64
        )


class TestVABOverflow:
    def test_overflow_truncates_and_counts(self):
        import numpy as np

        from repro.droplet import MPP, MPPConfig
        from repro.graph import build_csr
        from repro.memory import GraphLayout

        edges = [(0, i % 32) for i in range(16)]
        g = build_csr(32, np.array(edges))
        layout = GraphLayout(g, property_names=("rank",))
        mpp = MPP(layout.space.page_table, MPPConfig(vab_entries=4))
        mpp.configure_from_layout(layout, "rank")
        targets = mpp.scan_targets(layout.structure.base // 64, 0)
        assert mpp.vab_overflows == 1
        # Truncated to the VAB capacity before translation/dedup.
        assert len(targets) <= 4


class TestMultiPropertyMPP:
    def test_multiple_bases_generate_per_array_requests(self):
        import numpy as np

        from repro.droplet import MPP
        from repro.graph import build_csr
        from repro.memory import GraphLayout

        edges = [(0, i * 16) for i in range(4)]  # line-spread neighbor IDs
        g = build_csr(64, np.array(edges))
        layout = GraphLayout(g, property_names=("a", "b"))
        mpp = MPP(layout.space.page_table)
        mpp.configure_from_layout(layout, ("a", "b"))
        lines = set(mpp.scan_targets(layout.structure.base // 64, 0))
        for name in ("a", "b"):
            region = layout.properties[name]
            assert any(
                region.contains(line * 64) for line in lines
            ), name
