"""Unit tests for the CSR graph representation."""

import numpy as np
import pytest

from repro.graph import CSRGraph, GraphError, build_csr


class TestBuildCSR:
    def test_basic_construction(self):
        g = build_csr(3, [(0, 1), (0, 2), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert list(g.neighbors_of(0)) == [1, 2]
        assert list(g.neighbors_of(1)) == [2]
        assert list(g.neighbors_of(2)) == []

    def test_empty_graph(self):
        g = build_csr(4, np.empty((0, 2), dtype=np.int64))
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert all(g.degree(v) == 0 for v in range(4))

    def test_zero_vertices(self):
        g = build_csr(0, np.empty((0, 2), dtype=np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_adjacency_sorted(self):
        g = build_csr(4, [(1, 3), (1, 0), (1, 2)])
        assert list(g.neighbors_of(1)) == [0, 2, 3]

    def test_dedup_keeps_first_weight(self):
        g = build_csr(
            3, [(0, 1), (0, 1), (0, 2)], weights=[5, 9, 7], dedup=True
        )
        assert g.num_edges == 2
        assert list(g.weights_of(0)) == [5, 7]

    def test_without_dedup_keeps_parallel_edges(self):
        g = build_csr(3, [(0, 1), (0, 1)])
        assert g.num_edges == 2

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphError):
            build_csr(2, [(0, 2)])
        with pytest.raises(GraphError):
            build_csr(2, [(-1, 0)])

    def test_negative_num_vertices_rejected(self):
        with pytest.raises(GraphError):
            build_csr(-1, [])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(GraphError):
            build_csr(3, [(0, 1), (1, 2)], weights=[1])


class TestOneKeySort:
    """The unweighted build sorts the edge key alone, the weighted one an
    argsort of it: both must give the CSR a plain loop gives."""

    @staticmethod
    def _edges(n: int, m: int, seed: int) -> np.ndarray:
        if n == 0:
            return np.empty((0, 2), dtype=np.int64)
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=(m, 2))
        loops = np.repeat(rng.integers(0, n, size=(m // 8, 1)), 2, axis=1)
        # Explicit duplicates and self-loops on top of the random ones.
        return np.concatenate([edges, edges[: m // 4], loops])

    @pytest.mark.parametrize("dedup", [False, True], ids=["keep", "dedup"])
    @pytest.mark.parametrize(
        "n, m, seed",
        [(0, 0, 0), (5, 0, 0), (1, 16, 1), (7, 60, 2), (40, 500, 3), (300, 4000, 4)],
    )
    def test_unweighted_matches_weighted_and_a_loop(self, n, m, seed, dedup):
        edges = self._edges(n, m, seed)
        plain = build_csr(n, edges, dedup=dedup)
        dummy = build_csr(n, edges, weights=np.arange(len(edges)), dedup=dedup)
        assert np.array_equal(plain.offsets, dummy.offsets)
        assert np.array_equal(plain.neighbors, dummy.neighbors)
        pairs = [(int(s), int(d)) for s, d in edges]
        pairs = sorted(set(pairs)) if dedup else sorted(pairs)
        assert [
            (v, int(u)) for v in range(n) for u in plain.neighbors_of(v)
        ] == pairs
        if dedup:
            # Each kept edge carries the weight of its first occurrence.
            first = {}
            for index, pair in enumerate(map(tuple, edges.tolist())):
                first.setdefault(pair, index)
            assert dummy.weights.tolist() == [first[pair] for pair in pairs]


class TestCSRGraphValidation:
    def test_bad_offsets_start(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0], dtype=np.int32))

    def test_offsets_must_be_monotone(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1]), np.array([0], dtype=np.int32))

    def test_offsets_end_must_match_edges(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 3]), np.array([0], dtype=np.int32))

    def test_neighbor_ids_in_range(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([5], dtype=np.int32))

    def test_weights_parallel_to_neighbors(self):
        with pytest.raises(GraphError):
            CSRGraph(
                np.array([0, 1]),
                np.array([0], dtype=np.int32),
                weights=np.array([1, 2]),
            )


class TestDerivedGraphs:
    def test_transpose_roundtrip(self, tiny_graph):
        t = tiny_graph.transpose()
        tt = t.transpose()
        assert np.array_equal(tt.offsets, tiny_graph.offsets)
        for v in range(tiny_graph.num_vertices):
            assert sorted(tt.neighbors_of(v)) == sorted(tiny_graph.neighbors_of(v))

    def test_transpose_reverses_edges(self):
        g = build_csr(3, [(0, 1), (0, 2)])
        t = g.transpose()
        assert list(t.neighbors_of(1)) == [0]
        assert list(t.neighbors_of(2)) == [0]
        assert t.degree(0) == 0

    def test_transpose_cached(self, tiny_graph):
        assert tiny_graph.transpose() is tiny_graph.transpose()

    def test_transpose_carries_weights(self):
        g = build_csr(3, [(0, 1), (1, 2)], weights=[7, 8])
        t = g.transpose()
        assert list(t.weights_of(1)) == [7]
        assert list(t.weights_of(2)) == [8]

    def test_symmetrized(self):
        g = build_csr(3, [(0, 1), (1, 2)])
        s = g.symmetrized()
        assert s.is_symmetric()
        assert s.num_edges == 4

    def test_is_symmetric_detects_asymmetry(self):
        g = build_csr(3, [(0, 1)])
        assert not g.is_symmetric()

    def test_tiny_graph_is_symmetric(self, tiny_graph):
        assert tiny_graph.is_symmetric()


class TestQueries:
    def test_degrees(self, tiny_graph):
        degs = tiny_graph.out_degrees()
        assert degs.sum() == tiny_graph.num_edges
        assert tiny_graph.degree(2) == 3  # neighbors 0, 1, 3

    def test_edges_iterator(self):
        g = build_csr(3, [(0, 1), (1, 2)])
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_weights_of_unweighted_raises(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.weights_of(0)

    def test_footprint_accounting(self):
        g = build_csr(10, [(0, 1)] * 4, weights=[1, 2, 3, 4])
        expected = 8 * 11 + 8 * 4 + 4 * 10
        assert g.footprint_bytes() == expected

    def test_footprint_unweighted(self):
        g = build_csr(10, [(0, 1)] * 4)
        assert g.footprint_bytes() == 8 * 11 + 4 * 4 + 4 * 10
