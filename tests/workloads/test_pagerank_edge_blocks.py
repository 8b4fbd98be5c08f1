"""Block-emitted edge-centric PageRank traces equal the per-reference oracle's.

``EdgeCentricPageRank`` records its contribution pass and its edge sweep
in NumPy blocks; ``PerReferenceEdgeCentricPageRank`` is the
per-reference loop it replaced.  Both must record byte-identical arrays
with the same dtypes, the same phase markers and the same completion
flag, and a completed run the same scores, bit for bit, whatever the
graph, window, budget, iteration count or chunk size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph
from repro.runtime.points import TraceSpec
from repro.workloads import EdgeCentricPageRank
from repro.workloads import pagerank_edge as pagerank_edge_module

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
from .pagerank_edge_oracle import PerReferenceEdgeCentricPageRank


def edge_parity(graph, chunk=4096, **kwargs):
    return parity(
        pagerank_edge_module,
        chunk,
        EdgeCentricPageRank(),
        PerReferenceEdgeCentricPageRank(),
        graph,
        **kwargs,
    )


@st.composite
def edge_cases(draw):
    kwargs = {
        "max_refs": draw(MAX_REFS),
        "skip_refs": draw(SKIP_REFS),
        "iterations": draw(st.integers(0, 4)),
    }
    return draw(graphs()), kwargs, draw(CHUNK_SIZES)


class TestBlockParity:
    @given(edge_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_reference_oracle(self, case):
        graph, kwargs, chunk = case
        edge_parity(graph, chunk, **kwargs)

    def test_single_vertex_with_a_self_loop(self):
        graph = CSRGraph(np.array([0, 1]), np.array([0]), name="one")
        run = edge_parity(graph, max_refs=None, iterations=3)
        assert run.completed

    def test_window_ending_on_an_iteration_boundary_keeps_its_marker(self, tiny_graph):
        full = PerReferenceEdgeCentricPageRank().run(
            tiny_graph, max_refs=None, iterations=3
        )
        boundary = {label: index for index, label in full.trace.phases}
        run = edge_parity(tiny_graph, 3, max_refs=boundary["iteration:1"], iterations=3)
        assert not run.completed
        assert run.trace.phases[-1] == (boundary["iteration:1"], "iteration:1")

    def test_skip_longer_than_the_whole_run(self, tiny_graph):
        run = edge_parity(tiny_graph, max_refs=100, skip_refs=10**6, iterations=3)
        assert run.completed and len(run.trace) == 0
        assert run.trace.phases == [(0, "iteration:2")]

    def test_experiment_spec_at_scale_shift_minus_three(self):
        spec = TraceSpec("PR-EDGE", "kron", scale_shift=-3)
        graph = spec.graph()
        oracle = PerReferenceEdgeCentricPageRank().run(
            graph,
            max_refs=spec.max_refs,
            skip_refs=EdgeCentricPageRank().recommended_skip(graph),
        )
        assert_same_run(spec.trace(graph), oracle)


class TestOutOfRangeIndex:
    @pytest.mark.parametrize("skip", [0, 5, 100])
    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_layout_too_small_for_the_graph(self, tiny_graph, skip, chunk):
        # Five vertices: the contribution pass runs past the score region.
        small = CSRGraph(np.array([0, 1, 2, 3, 4, 4]), np.zeros(4), name="small")

        def trace_with(workload):
            layout = workload.make_layout(small)
            return lambda tb: workload._trace(tiny_graph, layout, tb, 0.85, 2)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pagerank_edge_module, "BLOCK_VERTICES", chunk)
            message, trace = traced_until_error(
                trace_with(EdgeCentricPageRank()), skip=skip
            )
        oracle_message, oracle_trace = traced_until_error(
            trace_with(PerReferenceEdgeCentricPageRank()), skip=skip
        )
        assert message == oracle_message
        assert "'prop:score'" in message
        assert_same_trace(trace, oracle_trace)
