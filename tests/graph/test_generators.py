"""Unit tests for the synthetic dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.graph import (
    PAPER_DATASET_NAMES,
    graph_stats,
    kronecker,
    make_dataset,
    paper_datasets,
    powerlaw_tail_ratio,
    preferential_attachment,
    road_mesh,
    uniform_random,
)


class TestKronecker:
    def test_size(self):
        g = kronecker(scale=8, edge_factor=8, seed=1)
        assert g.num_vertices == 256
        # Dedup of a power-law generator loses some edges but the bulk stays.
        assert g.num_edges > 256 * 8 * 0.5

    def test_deterministic(self):
        a = kronecker(scale=7, seed=42)
        b = kronecker(scale=7, seed=42)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert np.array_equal(a.offsets, b.offsets)

    def test_seed_changes_graph(self):
        a = kronecker(scale=7, seed=1)
        b = kronecker(scale=7, seed=2)
        assert not np.array_equal(a.neighbors, b.neighbors)

    def test_power_law_tail(self):
        g = kronecker(scale=11, seed=3)
        # Top 1% of vertices should own far more than 1% of the edges.
        assert powerlaw_tail_ratio(g) > 0.10

    def test_weighted(self):
        g = kronecker(scale=7, weighted=True, seed=1)
        assert g.is_weighted
        assert g.weights.min() >= 1
        assert g.weights.max() <= 255

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            kronecker(scale=0)

    # sha256 of the offsets, neighbors and weights arrays; a faster
    # sampler must build these exact graphs from the same seeds.
    @pytest.mark.parametrize(
        "scale, weighted, seed, digests",
        [
            (
                9,
                False,
                1234,
                (
                    "bcc848d1656d696801654f10050fe1a3d9d04a7932c417fc8dd47c59bd574881",
                    "378ba74e817107b05d30fb814fcf81af684bc618d9dcc4889dacf297c8fbee56",
                    None,
                ),
            ),
            (
                11,
                True,
                3,
                (
                    "3194143a070049c603042d165564e5d6889cbf58f1f4f7c50425c16132797f15",
                    "d0396e35589261c43bc0f24d358b59fadddaa1e3c48f9dcfb176f9aea4da4bbd",
                    "93ac0d22e096785a38fff9bdd959b04d41f82b84470aaf8be97d9ada9f747a99",
                ),
            ),
            (
                14,
                True,
                7,
                (
                    "8bf80c7758ca0a4efdc71c8dec11bfc257567427140a76a9c1c75e35a93c23c2",
                    "4ec7d463abcf5ab55c0ac4f2bd8b8de3e03564061f3beac364c8f0d1d26c88ee",
                    "3ab987d9bd5f38594d9957e8d879defbeca119f1709b6530f0076fb6696c76a8",
                ),
            ),
        ],
    )
    def test_pinned_graphs(self, scale, weighted, seed, digests):
        g = kronecker(scale=scale, weighted=weighted, seed=seed)
        assert (g.offsets.dtype, g.neighbors.dtype) == (np.int64, np.int32)
        arrays = (g.offsets, g.neighbors, g.weights)
        got = tuple(
            None if a is None else hashlib.sha256(a.tobytes()).hexdigest()
            for a in arrays
        )
        assert got == digests


class TestUniformRandom:
    def test_size_and_degree_spread(self):
        g = uniform_random(scale=10, edge_factor=8, seed=2)
        assert g.num_vertices == 1024
        degs = g.out_degrees()
        # Uniform graphs have a tight degree distribution.
        assert degs.max() < degs.mean() * 4

    def test_no_powerlaw_tail(self):
        g = uniform_random(scale=11, seed=2)
        assert powerlaw_tail_ratio(g) < 0.05

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            uniform_random(scale=0)


class TestRoadMesh:
    def test_bounded_degree(self):
        g = road_mesh(side=16, shortcut_fraction=0.0)
        assert g.num_vertices == 256
        assert g.out_degrees().max() <= 4

    def test_symmetric(self):
        g = road_mesh(side=10, shortcut_fraction=0.0)
        assert g.is_symmetric()

    def test_connected_corner_to_corner(self):
        from repro.workloads import BFS

        g = road_mesh(side=8, shortcut_fraction=0.0)
        parent = BFS().reference(g, source=0)
        assert parent[g.num_vertices - 1] != -1

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            road_mesh(side=1)


class TestPreferentialAttachment:
    def test_size(self):
        g = preferential_attachment(2000, out_degree=8, seed=4)
        assert g.num_vertices == 2000
        assert g.num_edges > 2000 * 8  # symmetrized

    def test_heavy_tail(self):
        g = preferential_attachment(4000, out_degree=8, seed=4)
        assert powerlaw_tail_ratio(g) > 0.08

    def test_symmetric(self):
        g = preferential_attachment(500, out_degree=4, seed=4)
        assert g.is_symmetric()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            preferential_attachment(4, out_degree=8)


class TestPaperDatasets:
    @pytest.mark.parametrize("name", PAPER_DATASET_NAMES)
    def test_make_dataset_small(self, name):
        g = make_dataset(name, scale_shift=-5)
        assert g.name == name
        assert g.num_vertices > 0
        assert g.num_edges > 0

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            make_dataset("facebook")

    def test_weighted_variants(self):
        g = make_dataset("urand", scale_shift=-5, weighted=True)
        assert g.is_weighted

    def test_paper_datasets_returns_all(self):
        graphs = paper_datasets(scale_shift=-5)
        assert set(graphs) == set(PAPER_DATASET_NAMES)

    def test_default_sizes_stress_scaled_llc(self):
        """Structure footprints must exceed the largest swept LLC (2 MB)."""
        for name in ("kron", "urand", "orkut", "livejournal", "road"):
            g = make_dataset(name)
            structure_bytes = 4 * g.num_edges
            assert structure_bytes > 2 * 2**20, name

    def test_default_property_exceeds_l2(self):
        """Property arrays must dwarf the 32 KB scaled L2."""
        for name in PAPER_DATASET_NAMES:
            g = make_dataset(name)
            assert 4 * g.num_vertices >= 4 * 32 * 1024, name
