"""Block-emitted SSSP traces equal the per-reference oracle's.

``SSSP.trace_into`` decides each block of bin visits in a plain-list
loop and lays it out in NumPy; ``PerReferenceSSSP`` is the
per-reference loop it replaced.  Both must record byte-identical arrays
with the same dtypes, the same phase markers and the same completion
flag, and a completed run the same distances, whatever the graph,
weights, ``delta``, source, window, budget, chunk size or
pending-reference bound.  A completed run's distances are also
``reference()``'s (scipy's Dijkstra).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, build_csr
from repro.runtime.points import TraceSpec
from repro.workloads import SSSP, Tracer
from repro.workloads import sssp as sssp_module

from .block_parity import (
    BLOCK_REFS,
    CHUNK_SIZES,
    MAX_REFS,
    SKIP_REFS,
    assert_same_run,
    assert_same_trace,
    parity,
    traced_until_error,
    weighted_graphs,
)
from .sssp_oracle import PerReferenceSSSP


def sssp_parity(graph, chunk=4096, block_refs=None, **kwargs):
    return parity(
        sssp_module, chunk, SSSP(), PerReferenceSSSP(), graph, block_refs, **kwargs
    )


@st.composite
def sssp_cases(draw):
    graph = draw(weighted_graphs())
    sources = [st.integers(0, graph.num_vertices - 1)]
    if graph.num_edges:
        sources.append(st.none())  # the default source needs an edge
    kwargs = {
        "max_refs": draw(MAX_REFS),
        "skip_refs": draw(SKIP_REFS),
        "source": draw(st.one_of(*sources)),
        "delta": draw(st.sampled_from([1, 3, 64])),
    }
    return graph, kwargs, draw(CHUNK_SIZES), draw(BLOCK_REFS)


#: 0 -> 1 (1), 0 -> 2 (100), 1 -> 2 (1).  Under delta 64, bin 0 pushes 1
#: onto its own frontier and 2 into bin 1, then 1 pulls 2 back into
#: bin 0; bin 1's only visit, to 2, is stale.
DETOUR = build_csr(
    3, np.array([(0, 1), (0, 2), (1, 2)]), weights=np.array([1, 100, 1]), name="detour"
)


class TestBlockParity:
    @given(sssp_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_reference_oracle(self, case):
        graph, kwargs, chunk, block_refs = case
        run = sssp_parity(graph, chunk, block_refs, **kwargs)
        if run.completed:
            want = SSSP().reference(graph, source=kwargs["source"])
            assert np.array_equal(run.result, want)

    @pytest.mark.parametrize(("chunk", "block_refs"), [(1, None), (4096, 1), (4096, None)])
    def test_pushes_into_the_current_and_a_later_bin(self, chunk, block_refs):
        run = sssp_parity(DETOUR, chunk, block_refs, max_refs=None, source=0)
        assert run.result.tolist() == [0, 1, 2]
        (_, first), (stale, second) = run.trace.phases
        assert (first, second) == ("bin:0", "bin:1")
        # A stack access, the bin pop and the dist load, and no more.
        assert len(run.trace) - stale == 3

    def test_source_without_edges(self, weighted_graph):
        run = sssp_parity(weighted_graph, max_refs=None, source=3)
        assert run.completed and run.result[3] == 0

    def test_window_ending_on_a_bin_boundary_keeps_its_marker(self, weighted_graph):
        full = PerReferenceSSSP().run(weighted_graph, max_refs=None, source=0, delta=1)
        boundary, label = full.trace.phases[2]
        run = sssp_parity(weighted_graph, 2, 5, max_refs=boundary, source=0, delta=1)
        assert not run.completed
        assert run.trace.phases[-1] == (boundary, label)

    def test_skip_longer_than_the_whole_run(self, weighted_graph):
        run = sssp_parity(weighted_graph, max_refs=100, skip_refs=10**6, source=0)
        assert run.completed and len(run.trace) == 0
        assert run.trace.phases == [(0, "bin:0")]

    @pytest.mark.parametrize(
        ("dataset", "chunk", "block_refs"),
        [("kron", 4096, None), ("road", 4096, None), ("road", 7, 100)],
    )
    def test_experiment_spec_at_scale_shift_minus_three(self, dataset, chunk, block_refs):
        spec = TraceSpec("SSSP", dataset, scale_shift=-3)
        graph = spec.graph()
        oracle = PerReferenceSSSP().run(
            graph, max_refs=spec.max_refs, skip_refs=SSSP().recommended_skip(graph)
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sssp_module, "BLOCK_VERTICES", chunk)
            if block_refs is not None:
                patch.setattr(sssp_module, "BLOCK_REFS", block_refs)
            assert_same_run(spec.trace(graph), oracle)


class TestOutOfRangeIndex:
    @pytest.mark.parametrize("skip", [0, 5, 100])
    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_layout_too_small_for_the_graph(self, weighted_graph, skip, chunk):
        # Two vertices and one edge: the dist, offsets and structure
        # regions are all too short for the four-vertex graph.
        small = CSRGraph(np.array([0, 1, 1]), np.array([1]), np.array([1]), name="small")

        def trace_with(workload):
            layout = workload.make_layout(small)
            return lambda tb: workload.trace_into(
                weighted_graph, Tracer(tb, layout), source=0
            )

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sssp_module, "BLOCK_VERTICES", chunk)
            message, trace = traced_until_error(trace_with(SSSP()), skip=skip)
        oracle_message, oracle_trace = traced_until_error(
            trace_with(PerReferenceSSSP()), skip=skip
        )
        assert message == oracle_message
        assert_same_trace(trace, oracle_trace)
