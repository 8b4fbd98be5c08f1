"""Edge-centric PageRank (§VI extension) tests."""

import numpy as np
import pytest

from repro.memory import EdgeListLayout
from repro.system import Machine, SystemConfig
from repro.trace import DataType, TraceBuffer
from repro.workloads import EdgeCentricPageRank, get_workload
from repro.workloads.base import Tracer


class TestEdgeListLayout:
    def test_edge_array_matches_csr_semantics(self, tiny_graph):
        layout = EdgeListLayout(tiny_graph)
        # Gather sources are exactly the CSR neighbor entries, in order.
        assert np.array_equal(layout.edge_src, tiny_graph.neighbors)
        # Destinations are the CSR rows, non-decreasing (dst-sorted).
        assert (np.diff(layout.edge_dst) >= 0).all()
        assert layout.num_edges == tiny_graph.num_edges

    def test_structure_region_tagged(self, tiny_graph):
        layout = EdgeListLayout(tiny_graph)
        assert layout.space.page_table.is_structure(layout.structure.base)
        assert layout.structure_element_size == 8

    def test_scan_extracts_gather_indices(self, tiny_graph):
        layout = EdgeListLayout(tiny_graph)
        ids = layout.scan_structure_line(layout.structure.base)
        assert list(ids) == list(tiny_graph.neighbors[:8])  # 8 entries/line

    def test_is_structure_line(self, tiny_graph):
        layout = EdgeListLayout(tiny_graph)
        assert layout.is_structure_line(layout.structure.base)
        assert not layout.is_structure_line(layout.properties["prop"].base)


class TestEdgeCentricPageRank:
    def test_registry_lookup(self):
        assert get_workload("pr-edge").name == "PR-edge"

    def test_matches_csr_pagerank(self, small_kron):
        pre = EdgeCentricPageRank()
        csr = get_workload("PR")
        assert np.allclose(
            pre.reference(small_kron, iterations=3),
            csr.reference(small_kron, iterations=3),
        )
        run = pre.run(small_kron, max_refs=None, iterations=3)
        assert run.completed
        assert np.allclose(run.result, csr.reference(small_kron, iterations=3))

    def test_structure_stream_is_sequential(self, small_kron):
        run = EdgeCentricPageRank().run(small_kron, max_refs=None, iterations=1)
        t = run.trace
        struct = t.addr[t.kind == int(DataType.STRUCTURE)]
        assert (np.diff(struct) == 8).all()  # a perfect 8-byte stream

    def test_gathers_depend_on_edge_loads(self, tiny_graph):
        run = EdgeCentricPageRank().run(tiny_graph, max_refs=None, iterations=1)
        t = run.trace
        contrib = run.layout.properties["contrib"]
        deps = [
            int(t.dep[i])
            for i in range(len(t))
            if t.is_load[i] and t.dep[i] >= 0 and contrib.contains(int(t.addr[i]))
        ]
        assert deps
        assert all(t.kind[d] == int(DataType.STRUCTURE) for d in deps)

    def test_droplet_works_unchanged_on_edge_layout(self, small_kron):
        """The paper's §VI claim, executed: same prefetcher, COO layout."""
        pre = EdgeCentricPageRank()
        run = pre.run(
            small_kron, max_refs=30_000, skip_refs=pre.recommended_skip(small_kron)
        )
        base = Machine(SystemConfig.scaled_baseline(), run.layout, "none").run(run.trace)
        droplet = Machine(
            SystemConfig.scaled_baseline(), run.layout, "droplet", "contrib"
        ).run(run.trace)
        assert droplet.mpp.structure_fills_seen > 0
        assert droplet.llc_mpki() <= base.llc_mpki()

    def test_budget_truncation(self, small_kron):
        run = EdgeCentricPageRank().run(small_kron, max_refs=500)
        assert not run.completed
        assert len(run.trace) == 500

    def test_trace_into_records_what_run_records(self, tiny_graph):
        pre = EdgeCentricPageRank()
        tb = TraceBuffer(capacity=None, name=pre.name)
        tracer = Tracer(tb, pre.make_layout(tiny_graph))
        scores = pre.trace_into(tiny_graph, tracer, iterations=3)
        run = pre.run(tiny_graph, max_refs=None, iterations=3)
        direct = tb.finalize()
        assert isinstance(run.layout, EdgeListLayout)
        assert np.array_equal(scores, run.result)
        for field in ("addr", "kind", "is_load", "dep", "gap"):
            assert np.array_equal(getattr(direct, field), getattr(run.trace, field))
        assert direct.phases == run.trace.phases
