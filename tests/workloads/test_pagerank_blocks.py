"""Block-emitted PageRank traces equal the per-reference oracle's.

``PageRank.trace_into`` records each pass in NumPy blocks;
``PerReferencePageRank`` is the per-reference loop it replaced.  Both
must record byte-identical arrays with the same dtypes, the same phase
markers and the same completion flag, and a completed run the same
scores, whatever the graph, window, budget or vertex range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, kronecker
from repro.memory import GraphLayout
from repro.runtime.points import TraceSpec
from repro.trace import TraceBuffer
from repro.workloads import PageRank, Tracer
from repro.workloads import pagerank as pagerank_module

from .pagerank_oracle import PerReferencePageRank

COLUMNS = ("addr", "kind", "is_load", "dep", "gap")


def assert_same_trace(block, oracle):
    for name in COLUMNS:
        got, want = getattr(block, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert block.phases == oracle.phases
    assert block.name == oracle.name
    assert block.core == oracle.core


def assert_same_run(block, oracle):
    assert_same_trace(block.trace, oracle.trace)
    assert block.completed == oracle.completed
    if oracle.completed:
        assert np.array_equal(block.result, oracle.result)
    else:
        assert block.result is None


def both_runs(graph, **kwargs):
    return PageRank().run(graph, **kwargs), PerReferencePageRank().run(graph, **kwargs)


@st.composite
def pagerank_cases(draw):
    """A small graph in raw CSR form plus a tracing window.

    Adjacency lists are drawn unsorted, with duplicates, self-loops and
    zero-degree vertices; the block size is drawn too, so blocks split
    passes at arbitrary vertices.
    """
    n = draw(st.integers(1, 30))
    degrees = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    neighbors = draw(
        st.lists(
            st.integers(0, n - 1), min_size=int(offsets[-1]), max_size=int(offsets[-1])
        )
    )
    graph = CSRGraph(offsets, np.array(neighbors, dtype=np.int32), name="hyp")
    lo = draw(st.integers(0, n))
    vertex_range = draw(st.sampled_from([None, (lo, draw(st.integers(lo, n)))]))
    kwargs = {
        "max_refs": draw(st.one_of(st.sampled_from([None, 0, 1]), st.integers(2, 400))),
        "skip_refs": draw(st.integers(0, 400)),
        "iterations": draw(st.integers(0, 4)),
        "tolerance": draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.05, 1.0])),
    }
    if vertex_range is not None:
        kwargs["vertex_range"] = vertex_range
    return graph, kwargs, draw(st.sampled_from([1, 2, 3, 7, 4096]))


class TestBlockParity:
    @given(pagerank_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_reference_oracle(self, case):
        graph, kwargs, block_vertices = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pagerank_module, "BLOCK_VERTICES", block_vertices)
            block, oracle = both_runs(graph, **kwargs)
        assert_same_run(block, oracle)

    def test_single_vertex_with_a_self_loop(self):
        graph = CSRGraph(np.array([0, 1]), np.array([0]), name="one")
        block, oracle = both_runs(graph, max_refs=None, iterations=3)
        assert block.completed
        assert_same_run(block, oracle)

    def test_window_ending_on_an_iteration_boundary_keeps_its_marker(self, tiny_graph):
        n, m = tiny_graph.num_vertices, tiny_graph.num_edges
        one_iteration = 6 * n + 2 * m
        block, oracle = both_runs(tiny_graph, max_refs=one_iteration, iterations=3)
        assert_same_run(block, oracle)
        assert not block.completed
        assert block.trace.phases[-1] == (one_iteration, "iteration:1")

    def test_skip_longer_than_the_whole_run(self, tiny_graph):
        block, oracle = both_runs(
            tiny_graph, max_refs=100, skip_refs=10**6, iterations=3
        )
        assert_same_run(block, oracle)
        assert block.completed and len(block.trace) == 0
        assert block.trace.phases == [(0, "iteration:2")]

    @pytest.mark.parametrize("nudge", [0, 1])
    def test_tolerance_exit_compares_the_exact_delta(self, nudge):
        # ``delta`` sums |new - old| one vertex at a time.  A tolerance of
        # exactly iteration 2's delta must not stop the run there (it
        # stops one iteration later); the next float up must.  A pairwise
        # sum differs in the last bits on this graph.
        graph = kronecker(scale=10, edge_factor=8, seed=5, name="kron-s10")
        pr = PerReferencePageRank()
        old, new = (pr.run(graph, max_refs=None, iterations=k).result for k in (2, 3))
        delta = 0.0
        for change in np.abs(new - old).tolist():
            delta += change
        tolerance = np.nextafter(delta, np.inf) if nudge else delta
        block, oracle = both_runs(
            graph, max_refs=None, iterations=6, tolerance=float(tolerance)
        )
        assert_same_run(block, oracle)
        assert len(block.trace.phases) == (3 if nudge else 4)

    def test_partitioned_on_four_cores(self):
        graph = kronecker(scale=10, edge_factor=8, seed=5, name="kron-s10")
        kwargs = {"num_cores": 4, "max_refs": 20_000, "skip_refs": 3_000}
        blocks = PageRank().run_partitioned(graph, **kwargs)
        oracles = PerReferencePageRank().run_partitioned(graph, **kwargs)
        assert len(blocks) == len(oracles) == 4
        for block, oracle in zip(blocks, oracles):
            assert_same_run(block, oracle)
        completed = PageRank().run_partitioned(graph, 4, max_refs=None, iterations=2)
        oracles = PerReferencePageRank().run_partitioned(
            graph, 4, max_refs=None, iterations=2
        )
        for block, oracle in zip(completed, oracles):
            assert block.completed
            assert_same_run(block, oracle)

    def test_experiment_spec_at_scale_shift_minus_three(self):
        spec = TraceSpec("PR", "kron", scale_shift=-3)
        graph = spec.graph()
        oracle = PerReferencePageRank().run(
            graph,
            max_refs=spec.max_refs,
            skip_refs=PageRank().recommended_skip(graph),
        )
        assert_same_run(spec.trace(graph), oracle)


def traced_until_error(workload, graph, layout, **kwargs):
    """Run ``trace_into`` to its ``IndexError``; return it and the trace."""
    tb = TraceBuffer(capacity=kwargs.pop("max_refs", None), skip=kwargs.pop("skip", 0))
    with pytest.raises(IndexError) as error:
        workload.trace_into(graph, Tracer(tb, layout), **kwargs)
    return str(error.value), tb.finalize()


class TestOutOfRangeIndex:
    @pytest.mark.parametrize("skip", [0, 5, 100])
    def test_vertex_range_past_the_graph(self, tiny_graph, skip):
        layout = PageRank().make_layout(tiny_graph)
        results = [
            traced_until_error(
                workload, tiny_graph, layout, vertex_range=(3, 12), skip=skip
            )
            for workload in (PageRank(), PerReferencePageRank())
        ]
        (message, trace), (oracle_message, oracle_trace) = results
        assert message == oracle_message
        assert "prop:score" in message
        assert_same_trace(trace, oracle_trace)

    def test_layout_with_fewer_edges_fails_in_the_gather(self, tiny_graph):
        # Same vertex count, three edges: the structure region is too
        # short for the gather pass.
        small = CSRGraph(
            np.array([0, 1, 2, 3, 3, 3, 3, 3, 3]), np.array([1, 0, 1]), name="small"
        )
        layout = GraphLayout(small, property_names=PageRank.property_names)
        results = [
            traced_until_error(workload, tiny_graph, layout, max_refs=None)
            for workload in (PageRank(), PerReferencePageRank())
        ]
        (message, trace), (oracle_message, oracle_trace) = results
        assert message == oracle_message
        assert "structure" in message
        assert_same_trace(trace, oracle_trace)
        # The contribution pass, vertex 0's seven gather references, then
        # vertex 1's up to its second structure load (element 3).
        assert len(trace) == 3 * tiny_graph.num_vertices + 7 + 4
