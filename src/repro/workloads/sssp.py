"""Single-Source Shortest Paths (SSSP): delta-stepping over weighted graphs.

A simplified delta-stepping kernel in the GAP style: vertices live in
distance-indexed *bins* (intermediate data); processing a vertex streams
its neighbor/weight entries (*structure*, 8-byte entries for weighted
graphs) and relaxes each neighbor's distance (*property*, dependent on
the structure load).  Like GAP, settled checks allow re-insertion instead
of decrease-key.

Visits are traced in blocks.  The LIFO worklist and the relaxations
make each visit depend on distances earlier visits lowered, so a loop
over plain lists first runs a block's visits in the kernel's order and
notes only what shapes their references: the vertex each visit pops,
whether it is stale, and which edges relax (a distance store and a bin
push).  NumPy then lays out the block's references and one
``TraceBuffer.extend`` records them.  A block ends with its bin, at
``BLOCK_VERTICES`` visits, or once a bound on its references reaches
``BLOCK_REFS``.
The trace is the one a per-reference loop records
(``tests/workloads/sssp_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..memory.allocator import Region
from .base import (
    BLOCK_REFS,
    BLOCK_VERTICES,
    LOAD_INTERMEDIATE,
    LOAD_OFFSET,
    LOAD_PROPERTY,
    STACK_ACCESS,
    STORE_INTERMEDIATE,
    STORE_PROPERTY,
    Tracer,
    VisitBlock,
    Workload,
    adjacency,
)
from .bfs import default_source

__all__ = ["SSSP", "INF_DIST"]

#: "Unreached" distance sentinel.
INF_DIST = np.iinfo(np.int64).max // 4


class SSSP(Workload):
    """GAP-style delta-stepping SSSP."""

    name = "SSSP"
    needs_weights = True
    property_names = ("dist",)
    gathered_property = "dist"

    def reference(
        self, graph: CSRGraph, source: int | None = None, delta: int = 64
    ) -> np.ndarray:
        """Dijkstra via scipy (exact distances); INF_DIST if unreachable."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        self.validate_graph(graph)
        if source is None:
            source = default_source(graph)
        n = graph.num_vertices
        matrix = csr_matrix(
            (
                graph.weights.astype(np.float64),
                graph.neighbors.astype(np.int64),
                graph.offsets,
            ),
            shape=(n, n),
        )
        dist = dijkstra(matrix, directed=True, indices=source)
        out = np.full(n, INF_DIST, dtype=np.int64)
        reachable = np.isfinite(dist)
        out[reachable] = dist[reachable].astype(np.int64)
        return out

    def trace_into(
        self,
        graph: CSRGraph,
        tracer: Tracer,
        source: int | None = None,
        delta: int = 64,
    ) -> np.ndarray:
        """Traced delta-stepping; returns exact shortest distances."""
        if delta <= 0:
            raise ValueError("delta must be positive")
        if source is None:
            source = default_source(graph)
        n = graph.num_vertices
        offsets = graph.offsets.tolist()
        neighbors, weights = graph.neighbors, graph.weights
        dist = [INF_DIST] * n
        dist[source] = 0
        # Bins region: every push/pop is an intermediate access at a
        # monotonically advancing ring slot, like GAP's bucket vectors.
        bins_region = tracer.layout.add_intermediate("sssp_bins", max(4 * graph.num_edges, 4))
        pops, pushes = 0, 1
        bins: dict[int, list[int]] = {0: [source]}
        tracer.store_intermediate(bins_region, 0)
        while bins:
            current_bin = min(bins)
            tracer.phase("bin:%d" % current_bin)
            frontier = bins.pop(current_bin)
            while frontier:
                visits: list[int] = []  # popped vertices
                stale: list[int] = []  # visits (block positions) that stop early
                relaxed: list[int] = []  # edges (block positions) that push
                scanned = 0  # edges the block's visits walked
                # A visit makes at most 4 references plus 2 per edge, and
                # 2 more per relaxation.
                while frontier and len(visits) < BLOCK_VERTICES and (
                    4 * len(visits) + 2 * (scanned + len(relaxed)) < BLOCK_REFS
                ):
                    u = frontier.pop()
                    visits.append(u)
                    du = dist[u]
                    # Settled check: skip stale bin entries.
                    if du // delta < current_bin:
                        stale.append(len(visits) - 1)
                        continue
                    lo, hi = offsets[u], offsets[u + 1]
                    nbrs = neighbors[lo:hi].tolist()
                    for i, w in enumerate(weights[lo:hi].tolist()):
                        v = nbrs[i]
                        nd = du + w
                        if nd < dist[v]:
                            dist[v] = nd
                            relaxed.append(scanned + i)
                            b = nd // delta
                            if b == current_bin:
                                frontier.append(v)
                            else:
                                bins.setdefault(b, []).append(v)
                    scanned += hi - lo
                _trace_visits(
                    graph, tracer, bins_region, visits, stale, relaxed, pops, pushes
                )
                pops += len(visits)
                pushes += len(relaxed)
        return np.array(dist, dtype=np.int64)


def _trace_visits(
    graph: CSRGraph,
    tracer: Tracer,
    bins_region: Region,
    visits: list[int],
    stale: list[int],
    relaxed: list[int],
    pops: int,
    pushes: int,
) -> None:
    """Lay out and record a block of visits.

    Visit ``k`` pops ``visits[k]`` (call it ``u``): a stack access, a
    load of its bin slot (element ``pops + k`` of the ring over
    ``bins_region``) and a load of ``dist[u]`` that depends on it.  A
    ``stale`` visit stops there.  Any other loads ``offsets[u + 1]``
    (also dependent on the bin slot) and walks its edges, each a
    structure load and a dependent ``dist`` load of the neighbor.  A
    ``relaxed`` edge then stores the neighbor's distance and pushes it
    (element ``pushes`` on).
    """
    layout = tracer.layout
    cap = bins_region.num_elements
    dist_region = layout.properties["dist"]
    visits = np.array(visits, dtype=np.int64)
    relaxed = np.array(relaxed, dtype=np.int64)
    live = np.ones(len(visits), dtype=bool)
    live[stale] = False
    degree, _, edges = adjacency(graph.offsets, visits[live])
    walked = np.zeros(len(visits), dtype=np.int64)
    walked[live] = degree
    edge_refs = np.full(len(edges), 2)
    edge_refs[relaxed] = 4
    block = VisitBlock(tracer.tb, walked, edge_refs, head=3 + live)
    pos = block.vertex_pos
    slots = (pops + np.arange(len(visits))) % cap
    block.put(pos, layout.stack, visits % layout.stack.num_elements, STACK_ACCESS)
    block.put(pos + 1, bins_region, slots, LOAD_INTERMEDIATE)
    block.put(pos + 2, dist_region, visits, LOAD_PROPERTY, dep=pos + 1)
    pos = pos[live]
    block.put(pos + 3, layout.offsets, visits[live] + 1, LOAD_OFFSET, dep=pos + 1)
    targets = graph.neighbors[edges]
    block.put_edges(layout, edges, dist_region, targets)
    pos = block.edge_pos[relaxed]
    block.put(pos + 2, dist_region, targets[relaxed], STORE_PROPERTY, dep=pos)
    slots = (pushes + np.arange(len(relaxed))) % cap
    block.put(pos + 3, bins_region, slots, STORE_INTERMEDIATE)
    block.record()
