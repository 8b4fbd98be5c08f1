"""Edge-centric PageRank — the §VI "different data layouts" extension.

X-Stream-style [12]/[29] PageRank: instead of walking CSR adjacency
lists, each iteration streams a flat ``(src, dst)`` edge array sorted by
destination.  The edge array is the *structure* data (a pure sequential
stream — ideal for DROPLET's streamer), the source-rank read is the
random *property* gather (chased by the MPP), and the per-destination
accumulation is sequential because of the sort.

This workload demonstrates the paper's claim that DROPLET "can prefetch
these edge streams and use them to trigger a MPP ... to prefetch
property data" without any change to the prefetcher.

Both passes are traced in NumPy blocks, as CSR PageRank's are: the
graph alone fixes the reference order.  The contribution pass is CSR
PageRank's own; the edge sweep is built per chunk of destination rows.
Trace and scores are the ones a per-reference loop produces
(``tests/workloads/pagerank_edge_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..memory.edgelayout import EdgeListLayout
from ..trace.buffer import TraceBuffer
from ..trace.record import DataType
from .base import (
    BLOCK_VERTICES,
    GAP_PROPERTY,
    LOAD_PROPERTY,
    LOAD_STRUCTURE,
    STORE_PROPERTY,
    Block,
    Tracer,
    Workload,
)
from .pagerank import PageRank, trace_contributions

__all__ = ["EdgeCentricPageRank"]


class EdgeCentricPageRank(Workload):
    """Pull PageRank over a destination-sorted edge array."""

    name = "PR-edge"
    property_names = ("score", "contrib")
    gathered_property = "contrib"

    def recommended_skip(self, graph: CSRGraph) -> int:
        """Skip the first contribution pass, as in CSR PageRank."""
        return 3 * graph.num_vertices + graph.num_vertices // 8

    def make_layout(self, graph: CSRGraph) -> EdgeListLayout:
        """Edge-centric runs use the COO layout."""
        return EdgeListLayout(graph, property_names=self.property_names)

    def reference(
        self,
        graph: CSRGraph,
        damping: float = 0.85,
        iterations: int = 10,
    ) -> np.ndarray:
        """Same fixed point as CSR pull PageRank (the layout is an
        implementation detail, not an algorithm change)."""
        return PageRank().reference(graph, damping=damping, iterations=iterations)

    def trace_into(
        self,
        graph: CSRGraph,
        tracer: Tracer,
        damping: float = 0.85,
        iterations: int = 10,
    ) -> np.ndarray:
        """Trace edge-centric PageRank; ``tracer.layout`` is the
        :class:`EdgeListLayout` that :meth:`make_layout` returns."""
        return self._trace(graph, tracer.layout, tracer.tb, damping, iterations)

    def _trace(
        self,
        graph: CSRGraph,
        layout: EdgeListLayout,
        tb: TraceBuffer,
        damping: float,
        iterations: int,
    ) -> np.ndarray:
        """Trace each iteration's two passes in blocks.

        The contribution pass is CSR PageRank's.  The edge sweep visits
        the destination rows of ``layout`` in chunks of
        :data:`BLOCK_VERTICES`: each edge loads its entry and then,
        chasing it, ``contrib[src]``; the edge where the destination
        changes is followed by the previous destination's ``score``
        store, and a final store closes the pass.  ``gathered`` is a
        bincount in edge order, which adds as the loop does.
        """
        n = graph.num_vertices
        degrees = np.maximum(graph.out_degrees(), 1).astype(np.float64)
        score = np.full(n, 1.0 / n)
        contrib = np.zeros(n)
        base = (1.0 - damping) / n
        edge_src = layout.edge_src
        edge_dst = layout.edge_dst
        score_region = layout.properties["score"]
        contrib_region = layout.properties["contrib"]
        blocks = [
            np.arange(lo, min(lo + BLOCK_VERTICES, n))
            for lo in range(0, n, BLOCK_VERTICES)
        ]
        # The edges of each chunk of destination rows; empty ones dropped.
        rows = layout.graph.offsets
        bounds = np.unique(np.append(rows[::BLOCK_VERTICES], rows[-1]))
        for it in range(iterations):
            tb.mark_phase("iteration:%d" % it)
            trace_contributions(tb, layout, blocks, score, contrib, degrees)
            last_dst = -1
            for first, stop in zip(bounds[:-1], bounds[1:]):
                dst = edge_dst[first:stop]
                prev = np.concatenate(([last_dst], dst[:-1]))
                spill = (dst != prev) & (prev >= 0)
                edge_pos = 2 * np.arange(stop - first) + np.cumsum(spill) - spill
                block = Block(tb, 2 * (stop - first) + int(spill.sum()))
                block.put(
                    edge_pos, layout.structure, np.arange(first, stop), LOAD_STRUCTURE
                )
                block.put(
                    edge_pos + 1,
                    contrib_region,
                    edge_src[first:stop],
                    LOAD_PROPERTY,
                    dep=edge_pos,
                )
                block.put(edge_pos[spill] + 2, score_region, prev[spill], STORE_PROPERTY)
                block.record()
                last_dst = int(dst[-1])
            if last_dst >= 0:
                tb.store(score_region.addr(last_dst), DataType.PROPERTY, gap=GAP_PROPERTY)
            gathered = np.bincount(edge_dst, weights=contrib[edge_src], minlength=n)
            score = base + damping * gathered
        return score
