"""Block-emitted BC traces equal the per-reference oracle's.

``BetweennessCentrality.trace_into`` records its forward levels and its
backward sweep in NumPy blocks; ``PerReferenceBC`` is the per-reference
loop it replaced.  Both must record byte-identical arrays with the same
dtypes, the same phase markers and the same completion flag, and a
completed run the same scores, bit for bit, whatever the graph, number
of sources, window, budget or chunk size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, build_csr
from repro.runtime.points import TraceSpec
from repro.workloads import BetweennessCentrality, Tracer
from repro.workloads import bc as bc_module

from .bc_oracle import PerReferenceBC
from .block_parity import (
    CHUNK_SIZES,
    MAX_REFS,
    SKIP_REFS,
    assert_same_run,
    assert_same_trace,
    graphs,
    parity,
    traced_until_error,
)


def bc_parity(graph, chunk=4096, **kwargs):
    return parity(
        bc_module, chunk, BetweennessCentrality(), PerReferenceBC(), graph, **kwargs
    )


@st.composite
def bc_cases(draw):
    graph = draw(graphs())
    kwargs = {
        "max_refs": draw(MAX_REFS),
        "skip_refs": draw(SKIP_REFS),
        # Picking a source needs an edge.
        "num_sources": draw(st.integers(0, 3)) if graph.num_edges else 0,
    }
    return graph, kwargs, draw(CHUNK_SIZES)


#: An undirected 4-cycle: from any source, the opposite vertex has two
#: shortest paths.
RING = [(0, 1), (1, 2), (2, 3), (3, 0)]
CYCLE = build_csr(4, np.array(RING + [(b, a) for a, b in RING]), name="cycle")


class TestBlockParity:
    @given(bc_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_reference_oracle(self, case):
        graph, kwargs, chunk = case
        bc_parity(graph, chunk, **kwargs)

    def test_single_vertex_with_a_self_loop(self):
        graph = CSRGraph(np.array([0, 1]), np.array([0]), name="one")
        run = bc_parity(graph, max_refs=None)
        assert run.completed and run.result.tolist() == [0.0]

    def test_window_ending_on_a_phase_boundary_keeps_its_marker(self, tiny_graph):
        full = PerReferenceBC().run(tiny_graph, max_refs=None)
        boundary = {label: index for index, label in full.trace.phases}
        for label in ("backward:0", "forward:1"):
            run = bc_parity(tiny_graph, 2, max_refs=boundary[label])
            assert not run.completed
            assert run.trace.phases[-1] == (boundary[label], label)

    def test_skip_longer_than_the_whole_run(self, tiny_graph):
        run = bc_parity(tiny_graph, max_refs=100, skip_refs=10**6)
        assert run.completed and len(run.trace) == 0
        assert run.trace.phases == [(0, "backward:1")]

    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_two_shortest_paths_counted_across_chunks(self, chunk):
        # With one vertex per chunk, the opposite vertex is claimed in the
        # first chunk of level 1 and counted again in the second; its
        # sigma is 2, so each middle vertex scores 1/2.
        run = bc_parity(CYCLE, chunk, max_refs=None, num_sources=1)
        assert sorted(run.result.tolist()) == [0.0, 0.0, 0.5, 0.5]

    def test_both_sources_the_same_vertex(self):
        # Only vertex 0 has edges, so it is every sampled source.
        star = CSRGraph(np.array([0, 3, 3, 3, 3]), np.array([1, 2, 3]), name="star")
        assert PerReferenceBC()._sources(star, 2) == [0, 0]
        run = bc_parity(star, max_refs=None, num_sources=2)
        labels = [label for _, label in run.trace.phases]
        assert labels == ["forward:0", "backward:0", "forward:1", "backward:1"]

    @pytest.mark.parametrize("dataset", ["kron", "road"])
    def test_experiment_spec_at_scale_shift_minus_three(self, dataset):
        spec = TraceSpec("BC", dataset, scale_shift=-3)
        graph = spec.graph()
        oracle = PerReferenceBC().run(
            graph,
            max_refs=spec.max_refs,
            skip_refs=BetweennessCentrality().recommended_skip(graph),
        )
        assert_same_run(spec.trace(graph), oracle)


class TestOutOfRangeIndex:
    @pytest.mark.parametrize("skip", [0, 5, 100])
    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_layout_too_small_for_the_graph(self, tiny_graph, skip, chunk):
        # Six vertices and twelve edges: the sweep from vertex 2 reaches
        # vertex 5, whose last edge is past the structure region.
        small = CSRGraph(np.array([0, 2, 4, 7, 9, 11, 12]), np.zeros(12), name="small")

        def trace_with(workload):
            layout = workload.make_layout(small)
            return lambda tb: workload.trace_into(tiny_graph, Tracer(tb, layout))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bc_module, "BLOCK_VERTICES", chunk)
            message, trace = traced_until_error(
                trace_with(BetweennessCentrality()), skip=skip
            )
        oracle_message, oracle_trace = traced_until_error(
            trace_with(PerReferenceBC()), skip=skip
        )
        assert message == oracle_message
        assert "'structure'" in message
        assert_same_trace(trace, oracle_trace)
