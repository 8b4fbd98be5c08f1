"""The per-reference edge-centric PageRank emitter: the oracle for blocks.

``EdgeCentricPageRank`` builds its contribution pass and its edge sweep
in NumPy blocks.  The loop below is the emitter it replaced, kept
unchanged: one ``TraceBuffer`` call per reference, each address
bounds-checked by ``Region.addr``.  The parity tests trace both and
demand the same arrays, phases, completion and scores.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.memory.edgelayout import EdgeListLayout
from repro.trace.buffer import TraceBuffer
from repro.trace.record import DataType
from repro.workloads import EdgeCentricPageRank
from repro.workloads.base import GAP_PROPERTY, GAP_STRUCTURE

__all__ = ["PerReferenceEdgeCentricPageRank"]


class PerReferenceEdgeCentricPageRank(EdgeCentricPageRank):
    """Edge-centric PageRank traced one reference at a time."""

    def _trace(
        self,
        graph: CSRGraph,
        layout: EdgeListLayout,
        tb: TraceBuffer,
        damping: float,
        iterations: int,
    ) -> np.ndarray:
        n = graph.num_vertices
        degrees = np.maximum(graph.out_degrees(), 1).astype(np.float64)
        score = np.full(n, 1.0 / n)
        contrib = np.zeros(n)
        gathered = np.zeros(n)
        base = (1.0 - damping) / n
        edge_src = layout.edge_src
        edge_dst = layout.edge_dst
        m = layout.num_edges
        stack = layout.stack
        score_region = layout.properties["score"]
        contrib_region = layout.properties["contrib"]
        for it in range(iterations):
            tb.mark_phase("iteration:%d" % it)
            # Contribution pass: sequential property read-modify-write.
            for u in range(n):
                tb.load(stack.addr(u % stack.num_elements), DataType.INTERMEDIATE, gap=1)
                tb.load(score_region.addr(u), DataType.PROPERTY, gap=GAP_PROPERTY)
                contrib[u] = score[u] / degrees[u]
                tb.store(contrib_region.addr(u), DataType.PROPERTY, gap=GAP_PROPERTY)
            # Edge-streaming gather pass.
            gathered[:] = 0.0
            last_dst = -1
            for j in range(m):
                e = tb.load(layout.edge_addr(j), DataType.STRUCTURE, gap=GAP_STRUCTURE)
                u = int(edge_src[j])
                v = int(edge_dst[j])
                # The source-rank read: random gather, address produced by
                # the edge load — the chain DROPLET's MPP breaks.
                tb.load(contrib_region.addr(u), DataType.PROPERTY, dep=e, gap=GAP_PROPERTY)
                gathered[v] += contrib[u]
                if v != last_dst:
                    # Destination accumulator spill: sequential thanks to
                    # the dst sort (one store per destination change).
                    if last_dst >= 0:
                        tb.store(
                            score_region.addr(last_dst),
                            DataType.PROPERTY,
                            gap=GAP_PROPERTY,
                        )
                    last_dst = v
            if last_dst >= 0:
                tb.store(score_region.addr(last_dst), DataType.PROPERTY, gap=GAP_PROPERTY)
            score = base + damping * gathered
        return score
