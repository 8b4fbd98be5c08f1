"""Shared fixtures: small deterministic graphs and traces."""

from __future__ import annotations

import hashlib
import os
import random
from pathlib import Path

import numpy as np
import pytest

from repro.graph import CSRGraph, build_csr, kronecker, road_mesh, uniform_random

#: The code a cached trace depends on.  Must match the files CI's
#: trace-cache key hashes (``.github/workflows/ci.yml``, "Restore trace
#: cache"); a change to one list belongs in the other.
TRACE_CODE = (
    "src/repro/trace",
    "src/repro/workloads",
    "src/repro/graph",
    "src/repro/memory",
    "src/repro/runtime/points.py",
    "src/repro/runtime/trace_cache.py",
)


def _trace_code_digest(repo: Path) -> str:
    """sha256 over the relative paths and contents of ``TRACE_CODE``."""
    digest = hashlib.sha256()
    for entry in TRACE_CODE:
        path = repo / entry
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts
        )
        for f in files:
            digest.update(f.relative_to(repo).as_posix().encode() + b"\0")
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def pytest_configure(config):
    """Keep test runs off traces that other code wrote.

    A trace key does not cover the code that emitted the trace, so
    unless ``REPRO_TRACE_CACHE`` is set, tests read and write traces in
    a subdirectory of the default cache named after the trace code.
    """
    if "REPRO_TRACE_CACHE" not in os.environ:
        repo = Path(__file__).resolve().parent.parent
        os.environ["REPRO_TRACE_CACHE"] = str(
            Path.home() / ".cache" / "repro" / "traces"
            / ("src-" + _trace_code_digest(repo))
        )


@pytest.fixture(autouse=True)
def _pin_global_seeds():
    """Pin every global RNG before each test.

    The simulator itself only uses explicitly-seeded ``default_rng``
    instances, but test helpers (and Hypothesis shrinking) may touch the
    global generators; pinning them makes any accidental global-RNG
    dependence reproducible instead of flaky.  The nondeterminism audit
    in ``tests/parity/test_determinism.py`` checks the stronger property
    that simulation never consumes global RNG state at all.
    """
    random.seed(0xD307)
    np.random.seed(0xD307)
    yield


@pytest.fixture
def tiny_graph() -> CSRGraph:
    """The 8-vertex example graph used across unit tests.

    Edges (directed both ways where listed twice):

        0-1, 0-2, 1-2, 2-3, 3-4, 4-5, 5-6, 6-7  (a path-ish component)
    """
    edges = [
        (0, 1), (1, 0),
        (0, 2), (2, 0),
        (1, 2), (2, 1),
        (2, 3), (3, 2),
        (3, 4), (4, 3),
        (4, 5), (5, 4),
        (5, 6), (6, 5),
        (6, 7), (7, 6),
    ]
    return build_csr(8, np.array(edges), name="tiny")


@pytest.fixture
def two_component_graph() -> CSRGraph:
    """Two components: {0,1,2} and {3,4}, plus isolated vertex 5."""
    edges = [(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)]
    return build_csr(6, np.array(edges), name="twocomp")


@pytest.fixture
def weighted_graph() -> CSRGraph:
    """Small weighted digraph with known shortest paths from 0.

    0->1 (w=2), 0->2 (w=9), 1->2 (w=3), 2->3 (w=1), 1->3 (w=10)
    => dist = [0, 2, 5, 6]
    """
    edges = np.array([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    weights = np.array([2, 9, 3, 10, 1])
    return build_csr(4, edges, weights=weights, name="wtiny")


@pytest.fixture(scope="session")
def small_kron() -> CSRGraph:
    """A kron graph small enough for exhaustive workload validation."""
    return kronecker(scale=9, edge_factor=8, seed=5, name="kron-s9")


@pytest.fixture(scope="session")
def small_kron_weighted() -> CSRGraph:
    """Weighted variant of the small kron graph."""
    return kronecker(scale=9, edge_factor=8, weighted=True, seed=5, name="kron-s9w")


@pytest.fixture(scope="session")
def small_road() -> CSRGraph:
    """A small road mesh."""
    return road_mesh(side=24, seed=3, name="road-24")


@pytest.fixture(scope="session")
def small_urand() -> CSRGraph:
    """A small uniform-random graph."""
    return uniform_random(scale=9, edge_factor=8, seed=7, name="urand-s9")
