"""Block-emitted BFS traces equal the per-reference oracle's.

``BFS.trace_into`` records each top-down level and each bottom-up sweep
in NumPy blocks; ``PerReferenceBFS`` is the per-reference loop it
replaced.  Both must record byte-identical arrays with the same dtypes,
the same phase markers and the same completion flag, and a completed
run the same parents, whatever the graph, source, direction switch,
window, budget or chunk size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph
from repro.runtime.points import TraceSpec
from repro.trace import DataType
from repro.workloads import BFS, Tracer
from repro.workloads import bfs as bfs_module

from .bfs_oracle import PerReferenceBFS
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


def bfs_parity(graph, chunk=4096, **kwargs):
    return parity(bfs_module, chunk, BFS(), PerReferenceBFS(), graph, **kwargs)


@st.composite
def bfs_cases(draw):
    graph = draw(graphs())
    sources = [st.integers(0, graph.num_vertices - 1)]
    if graph.num_edges:
        sources.append(st.none())  # the default source needs an edge
    kwargs = {
        "max_refs": draw(MAX_REFS),
        "skip_refs": draw(SKIP_REFS),
        "source": draw(st.one_of(*sources)),
    }
    if draw(st.booleans()):
        # Past alpha = num_vertices, any frontier of two or more vertices
        # switches to a bottom-up sweep.
        kwargs["direction_optimizing"] = True
        kwargs["alpha"] = draw(st.one_of(st.integers(1, 8), st.just(64)))
    return graph, kwargs, draw(CHUNK_SIZES)


#: 0 -> {1, 2}, 1 -> 3, 2 -> {3, 4}: level 1 is [1, 2], and both reach 3.
DIAMOND = CSRGraph(
    np.array([0, 2, 3, 5, 5, 5]), np.array([1, 2, 3, 3, 4], dtype=np.int32), name="dia"
)


class TestBlockParity:
    @given(bfs_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_reference_oracle(self, case):
        graph, kwargs, chunk = case
        bfs_parity(graph, chunk, **kwargs)

    def test_single_vertex_with_a_self_loop(self):
        graph = CSRGraph(np.array([0, 1]), np.array([0]), name="one")
        run = bfs_parity(graph, max_refs=None)
        assert run.completed and run.result.tolist() == [0]

    def test_window_ending_on_a_level_boundary_keeps_its_marker(self, tiny_graph):
        full = PerReferenceBFS().run(tiny_graph, max_refs=None, source=0)
        boundary = {label: index for index, label in full.trace.phases}["level:2"]
        run = bfs_parity(tiny_graph, 1, max_refs=boundary, source=0)
        assert not run.completed
        assert run.trace.phases[-1] == (boundary, "level:2")

    def test_skip_longer_than_the_whole_run(self, tiny_graph):
        run = bfs_parity(tiny_graph, max_refs=100, skip_refs=10**6, source=0)
        assert run.completed and len(run.trace) == 0
        assert run.trace.phases == [(0, "level:6")]

    def test_neighbor_first_seen_in_an_earlier_chunk(self):
        # One vertex per chunk: 1 claims 3, so 2's edge to 3 stores nothing.
        run = bfs_parity(DIAMOND, 1, max_refs=None, source=0)
        assert run.result.tolist() == [0, 0, 0, 1, 2]
        parent = run.layout.properties["parent"]
        trace = run.trace
        stores = trace.addr[~trace.is_load & (trace.kind == DataType.PROPERTY)]
        assert stores.tolist() == [parent.addr(v) for v in (1, 2, 3, 4)]

    def test_bottom_up_sweep_exits_at_the_first_frontier_neighbor(self):
        # Level 0 claims 1 and 2, which switch the search to bottom-up.
        # Vertex 3 scans 0, then 2 (a frontier member) and stops before
        # its edge to 1; vertex 4 finds no frontier neighbor.  Level 2
        # then visits 3 top-down, which scans all three of its edges.
        graph = CSRGraph(
            np.array([0, 2, 2, 2, 5, 6]), np.array([1, 2, 0, 2, 1, 3]), name="exit"
        )
        run = bfs_parity(graph, 2, max_refs=None, source=0, direction_optimizing=True, alpha=64)
        assert run.result.tolist() == [0, 0, 0, 2, -1]
        assert [label for _, label in run.trace.phases] == [
            "level:0", "bottomup:1", "level:2",
        ]
        structure = run.layout.structure
        loads = run.trace.addr[run.trace.kind == DataType.STRUCTURE]
        assert loads.tolist() == [structure.addr(j) for j in (0, 1, 2, 3, 5, 2, 3, 4)]

    @pytest.mark.parametrize(("graph", "alpha"), [("small_kron", 3), ("small_road", 24)])
    @pytest.mark.parametrize("chunk", [3, 4096])
    def test_direction_optimizing_with_a_small_alpha(self, request, graph, alpha, chunk):
        # Top-down levels on both sides of the bottom-up sweeps.
        graph = request.getfixturevalue(graph)
        run = bfs_parity(graph, chunk, max_refs=None, direction_optimizing=True, alpha=alpha)
        labels = [label.split(":")[0] for _, label in run.trace.phases]
        assert labels[0] == labels[-1] == "level" and "bottomup" in labels

    @pytest.mark.parametrize(
        ("dataset", "chunk"), [("kron", 4096), ("road", 4096), ("road", 7)]
    )
    def test_experiment_spec_at_scale_shift_minus_three(self, dataset, chunk):
        spec = TraceSpec("BFS", dataset, scale_shift=-3)
        graph = spec.graph()
        oracle = PerReferenceBFS().run(
            graph, max_refs=spec.max_refs, skip_refs=BFS().recommended_skip(graph)
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bfs_module, "BLOCK_VERTICES", chunk)
            assert_same_run(spec.trace(graph), oracle)


class TestOutOfRangeIndex:
    @pytest.mark.parametrize("skip", [0, 5, 100])
    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_layout_too_small_for_the_graph(self, tiny_graph, skip, chunk):
        # Three vertices and edges: the parent, offsets and structure
        # regions are all too short for the tiny graph.
        small = CSRGraph(np.array([0, 1, 2, 3]), np.array([1, 0, 1]), name="small")

        def trace_with(workload):
            layout = BFS().make_layout(small)
            return lambda tb: workload.trace_into(
                tiny_graph, Tracer(tb, layout), source=0
            )

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bfs_module, "BLOCK_VERTICES", chunk)
            message, trace = traced_until_error(trace_with(BFS()), skip=skip)
        oracle_message, oracle_trace = traced_until_error(
            trace_with(PerReferenceBFS()), skip=skip
        )
        assert message == oracle_message
        assert "'structure'" in message
        assert_same_trace(trace, oracle_trace)

    @pytest.mark.parametrize("skip", [0, 20, 100])
    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_layout_too_small_for_a_bottom_up_sweep(self, tiny_graph, skip, chunk):
        # Eight vertices but three edges: level 0 scans edges 0 and 1,
        # and the bottom-up sweep runs past the structure region.
        small = CSRGraph(np.array([0, 2, 3, 3, 3, 3, 3, 3, 3]), np.array([1, 2, 0]), name="small")

        def trace_with(workload):
            layout = BFS().make_layout(small)
            return lambda tb: workload.trace_into(
                tiny_graph, Tracer(tb, layout), source=0,
                direction_optimizing=True, alpha=64,
            )

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bfs_module, "BLOCK_VERTICES", chunk)
            message, trace = traced_until_error(trace_with(BFS()), skip=skip)
        oracle_message, oracle_trace = traced_until_error(
            trace_with(PerReferenceBFS()), skip=skip
        )
        assert message == oracle_message
        assert "'structure'" in message
        assert trace.phases[-1][1] == "bottomup:1"
        assert_same_trace(trace, oracle_trace)
