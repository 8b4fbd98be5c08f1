"""Compressed Sparse Row (CSR) graph representation.

The CSR layout is the data layout studied by the paper (Section II-A,
Fig. 2).  It consists of three components:

* the **offset pointer** array — one entry per vertex, pointing at the start
  of that vertex's neighbor list (classified as *intermediate* data by the
  paper's terminology, since only the neighbor-ID array is "structure"),
* the **neighbor ID** array — the paper's *structure* data,
* the **vertex data** array — the paper's *property* data (owned by the
  workload, not by the graph; see :mod:`repro.workloads`).

The arrays are plain ``numpy`` arrays so that workloads can compute over
them vectorized where convenient while the trace layer replays the exact
element-level access stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CSRGraph", "build_csr", "csr_from_endpoints", "GraphError"]


class GraphError(ValueError):
    """Raised for structurally invalid graph construction arguments."""


@dataclass
class CSRGraph:
    """A directed graph in CSR form, optionally edge-weighted.

    Parameters
    ----------
    offsets:
        ``int64`` array of length ``num_vertices + 1``; monotone
        non-decreasing, ``offsets[0] == 0`` and ``offsets[-1] == num_edges``.
    neighbors:
        ``int32`` array of length ``num_edges`` holding destination vertex
        IDs (the paper's *structure* data).
    weights:
        Optional ``int32`` array parallel to ``neighbors``.  Present for
        weighted graphs (used by SSSP); ``None`` otherwise.
    name:
        Human-readable dataset name used in experiment reports.
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    weights: np.ndarray | None = None
    name: str = "unnamed"
    _in_csr: "CSRGraph | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        self.neighbors = np.ascontiguousarray(self.neighbors, dtype=np.int32)
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.int32)
            if len(self.weights) != len(self.neighbors):
                raise GraphError(
                    "weights length %d != neighbors length %d"
                    % (len(self.weights), len(self.neighbors))
                )
        if len(self.offsets) == 0:
            raise GraphError("offsets must have at least one entry")
        if self.offsets[0] != 0:
            raise GraphError("offsets[0] must be 0")
        if self.offsets[-1] != len(self.neighbors):
            raise GraphError(
                "offsets[-1]=%d does not match number of edges %d"
                % (self.offsets[-1], len(self.neighbors))
            )
        if np.any(np.diff(self.offsets) < 0):
            raise GraphError("offsets must be monotone non-decreasing")
        if len(self.neighbors) and (
            self.neighbors.min() < 0 or self.neighbors.max() >= self.num_vertices
        ):
            raise GraphError("neighbor IDs out of range")

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges (CSR entries)."""
        return len(self.neighbors)

    @property
    def is_weighted(self) -> bool:
        """Whether the graph carries edge weights."""
        return self.weights is not None

    def degree(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        return int(self.offsets[v + 1] - self.offsets[v])

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an ``int64`` array."""
        return np.diff(self.offsets)

    def neighbors_of(self, v: int) -> np.ndarray:
        """View of the neighbor IDs of vertex ``v``."""
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def weights_of(self, v: int) -> np.ndarray:
        """View of the edge weights of vertex ``v`` (weighted graphs only)."""
        if self.weights is None:
            raise GraphError("graph %r is unweighted" % self.name)
        return self.weights[self.offsets[v] : self.offsets[v + 1]]

    def edges(self):
        """Iterate over ``(src, dst)`` pairs in CSR order."""
        for v in range(self.num_vertices):
            for u in self.neighbors_of(v):
                yield v, int(u)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def transpose(self) -> "CSRGraph":
        """Return the transpose (in-edges become out-edges).

        Weights are carried along.  The result is cached on first use since
        pull-style workloads (e.g. PageRank) reuse it every iteration.
        """
        if self._in_csr is not None:
            return self._in_csr
        n = self.num_vertices
        sources = np.repeat(np.arange(n, dtype=np.int32), np.diff(self.offsets))
        order = np.argsort(self.neighbors, kind="stable")
        t_neighbors = sources[order]
        counts = np.bincount(self.neighbors, minlength=n)
        t_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=t_offsets[1:])
        t_weights = self.weights[order] if self.weights is not None else None
        self._in_csr = CSRGraph(
            t_offsets, t_neighbors, t_weights, name=self.name + ".T"
        )
        if not self.neighbors.flags.writeable:
            self._in_csr.freeze()
        return self._in_csr

    def freeze(self) -> "CSRGraph":
        """Make the CSR arrays read-only, and those of every transpose.

        A graph shared across traces (the runtime's graph memo) is frozen,
        so code that mutates it fails loudly instead of skewing later
        users.  Returns ``self``.
        """
        for array in (self.offsets, self.neighbors, self.weights):
            if array is not None:
                array.flags.writeable = False
        if self._in_csr is not None:
            self._in_csr.freeze()
        return self

    def symmetrized(self) -> "CSRGraph":
        """Return an undirected version with every edge present both ways."""
        n = self.num_vertices
        srcs = np.repeat(np.arange(n, dtype=np.int32), np.diff(self.offsets))
        dsts = self.neighbors
        all_src = np.concatenate([srcs, dsts])
        all_dst = np.concatenate([dsts, srcs])
        if self.weights is not None:
            all_w = np.concatenate([self.weights, self.weights])
        else:
            all_w = None
        return build_csr(
            n,
            np.stack([all_src, all_dst], axis=1),
            weights=all_w,
            dedup=True,
            name=self.name + ".sym",
        )

    def is_symmetric(self) -> bool:
        """Whether every edge has a reverse edge (ignoring weights)."""
        t = self.transpose()
        if not np.array_equal(self.offsets, t.offsets):
            return False
        for v in range(self.num_vertices):
            mine = np.sort(self.neighbors_of(v))
            theirs = np.sort(t.neighbors_of(v))
            if not np.array_equal(mine, theirs):
                return False
        return True

    # ------------------------------------------------------------------
    # Memory footprint accounting (used for dataset sizing, Table III)
    # ------------------------------------------------------------------
    def footprint_bytes(self, property_bytes_per_vertex: int = 4) -> int:
        """Approximate in-memory footprint of CSR + one property array.

        Mirrors the dataset-size accounting of the paper's Table III: 8 B
        per offset, 4 B per neighbor ID (8 B with a 4 B weight attached),
        plus ``property_bytes_per_vertex`` per vertex of property data.
        """
        per_edge = 8 if self.is_weighted else 4
        return (
            8 * (self.num_vertices + 1)
            + per_edge * self.num_edges
            + property_bytes_per_vertex * self.num_vertices
        )


def build_csr(
    num_vertices: int,
    edge_array,
    weights=None,
    dedup: bool = False,
    sort_neighbors: bool = True,
    name: str = "unnamed",
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an ``(E, 2)`` array of edges.

    Parameters
    ----------
    num_vertices:
        Number of vertices; all endpoints must be in ``[0, num_vertices)``.
    edge_array:
        Array-like of shape ``(E, 2)`` with ``(src, dst)`` rows.
    weights:
        Optional length-``E`` array of edge weights.
    dedup:
        Drop duplicate ``(src, dst)`` pairs (keeping the first weight).
    sort_neighbors:
        Sort each adjacency list by neighbor ID (the GAP convention).
    """
    if num_vertices < 0:
        raise GraphError("num_vertices must be non-negative")
    edge_array = np.asarray(edge_array, dtype=np.int64).reshape(-1, 2)
    if len(edge_array) and (
        edge_array.min() < 0 or edge_array.max() >= num_vertices
    ):
        raise GraphError("edge endpoints out of range")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int32)
        if len(weights) != len(edge_array):
            raise GraphError("weights must be parallel to edges")

    # Adjacency lists always come out sorted, whatever ``sort_neighbors``
    # says.
    return csr_from_endpoints(
        num_vertices,
        edge_array[:, 0],
        edge_array[:, 1],
        weights=weights,
        dedup=dedup,
        name=name,
    )


def csr_from_endpoints(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
    dedup: bool = False,
    name: str = "unnamed",
) -> CSRGraph:
    """:func:`build_csr` from parallel endpoint arrays, unchecked.

    The caller guarantees every ID lies in ``[0, num_vertices)`` and
    that ``weights`` (``int32``, if given) is parallel to the edges:
    generators pass the IDs they just drew without stacking them into
    an ``(E, 2)`` copy or scanning them again.
    """
    # Sort one (src, dst) key so adjacency lists come out contiguous and
    # ordered; CSR construction through this helper always leaves lists
    # sorted.
    key = np.asarray(src, dtype=np.int64) * num_vertices + dst
    if weights is None:
        key = np.sort(key)
    else:
        # Stable, so a duplicate edge keeps its first weight.
        order = np.argsort(key, kind="stable")
        key = key[order]
        weights = weights[order]
    if dedup:
        keep = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
        if weights is not None:
            weights = weights[keep]
    src, dst = np.divmod(key, num_vertices)

    counts = np.bincount(src, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    neighbors = dst.astype(np.int32)
    return CSRGraph(offsets, neighbors, weights, name=name)
