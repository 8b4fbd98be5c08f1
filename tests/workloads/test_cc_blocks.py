"""Block-emitted CC traces equal the per-reference oracle's.

``ConnectedComponents.trace_into`` decides each block of its hooking and
compression sweeps in a plain-list loop and lays it out in NumPy;
``PerReferenceCC`` is the per-reference loop it replaced.  Both must
record byte-identical arrays with the same dtypes, the same phase
markers and the same completion flag, and a completed run the same
labels, whatever the graph, vertex range, window, budget, chunk size or
pending-reference bound.  A completed run over the whole graph labels
each vertex with its component's least vertex, as ``reference()``
(scipy) does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph
from repro.runtime.points import TraceSpec
from repro.trace import NO_DEP
from repro.workloads import ConnectedComponents, Tracer
from repro.workloads import cc as cc_module

from .block_parity import (
    BLOCK_REFS,
    CHUNK_SIZES,
    MAX_REFS,
    SKIP_REFS,
    assert_same_run,
    assert_same_trace,
    graphs,
    parity,
    traced_until_error,
)
from .cc_oracle import PerReferenceCC


def cc_parity(graph, chunk=4096, block_refs=None, **kwargs):
    return parity(
        cc_module, chunk, ConnectedComponents(), PerReferenceCC(), graph,
        block_refs, **kwargs,
    )


@st.composite
def cc_cases(draw):
    graph = draw(graphs())
    kwargs = {"max_refs": draw(MAX_REFS), "skip_refs": draw(SKIP_REFS)}
    if draw(st.booleans()):
        lo = draw(st.integers(0, graph.num_vertices))
        kwargs["vertex_range"] = (lo, draw(st.integers(lo, graph.num_vertices)))
    return graph, kwargs, draw(CHUNK_SIZES), draw(BLOCK_REFS)


class TestBlockParity:
    @given(cc_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_reference_oracle(self, case):
        graph, kwargs, chunk, block_refs = case
        run = cc_parity(graph, chunk, block_refs, **kwargs)
        if run.completed and "vertex_range" not in kwargs:
            assert np.array_equal(run.result, ConnectedComponents().reference(graph))

    def test_self_loop_lowers_the_label_before_its_tail_store(self):
        # Vertex 1's edges are 0, then itself.  The first lowers its
        # minimum to 0; the self-loop then stores 0 into comp[1], so the
        # re-read label needs no tail store.
        graph = CSRGraph(np.array([0, 0, 2]), np.array([0, 1]), name="loop")
        run = cc_parity(graph, max_refs=None)
        assert run.result.tolist() == [0, 0]
        trace = run.trace
        stores = np.flatnonzero(~trace.is_load)
        assert len(stores) == 1 and trace.dep[stores[0]] != NO_DEP

    @pytest.mark.parametrize("chunk", [1, 2, 4096])
    def test_partitioned_runs_match_per_core(self, small_kron, chunk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cc_module, "BLOCK_VERTICES", chunk)
            runs = ConnectedComponents().run_partitioned(small_kron, 3, max_refs=None)
        oracles = PerReferenceCC().run_partitioned(small_kron, 3, max_refs=None)
        for run, oracle in zip(runs, oracles, strict=True):
            assert_same_run(run, oracle)

    def test_window_ending_on_a_round_boundary_keeps_its_marker(self, tiny_graph):
        full = PerReferenceCC().run(tiny_graph, max_refs=None)
        boundary = {label: index for index, label in full.trace.phases}["iteration:1"]
        run = cc_parity(tiny_graph, 3, 5, max_refs=boundary)
        assert not run.completed
        assert run.trace.phases[-1] == (boundary, "iteration:1")

    def test_skip_longer_than_the_whole_run(self, tiny_graph):
        full = PerReferenceCC().run(tiny_graph, max_refs=None)
        run = cc_parity(tiny_graph, max_refs=100, skip_refs=10**6)
        assert run.completed and len(run.trace) == 0
        assert run.trace.phases == [(0, full.trace.phases[-1][1])]

    @pytest.mark.parametrize(
        ("dataset", "chunk", "block_refs"),
        [("kron", 4096, None), ("road", 4096, None), ("road", 7, 100)],
    )
    def test_experiment_spec_at_scale_shift_minus_three(self, dataset, chunk, block_refs):
        spec = TraceSpec("CC", dataset, scale_shift=-3)
        graph = spec.graph()
        oracle = PerReferenceCC().run(
            graph,
            max_refs=spec.max_refs,
            skip_refs=ConnectedComponents().recommended_skip(graph),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cc_module, "BLOCK_VERTICES", chunk)
            if block_refs is not None:
                patch.setattr(cc_module, "BLOCK_REFS", block_refs)
            assert_same_run(spec.trace(graph), oracle)


class TestOutOfRangeIndex:
    @pytest.mark.parametrize("skip", [0, 5, 100])
    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_layout_too_small_for_the_graph(self, tiny_graph, skip, chunk):
        # Three vertices and edges: the comp, offsets and structure
        # regions are all too short for the tiny graph.
        small = CSRGraph(np.array([0, 1, 2, 3]), np.array([1, 0, 1]), name="small")

        def trace_with(workload):
            layout = workload.make_layout(small)
            return lambda tb: workload.trace_into(tiny_graph, Tracer(tb, layout))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cc_module, "BLOCK_VERTICES", chunk)
            message, trace = traced_until_error(
                trace_with(ConnectedComponents()), skip=skip
            )
        oracle_message, oracle_trace = traced_until_error(
            trace_with(PerReferenceCC()), skip=skip
        )
        assert message == oracle_message
        assert_same_trace(trace, oracle_trace)
