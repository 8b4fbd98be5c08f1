"""PageRank (PR): rank each vertex by the ranks of its neighbors.

Pull-style PageRank in the GAP idiom: a sequential contribution pass
(``contrib[u] = score[u] / degree[u]``) followed by a gather pass where
each vertex sums the contributions of its neighbors.  The gather is the
canonical structure→property indirection: the ``contrib`` load's address
is produced by the neighbor-ID load.

For directed inputs the kernel interprets each vertex's CSR list as its
in-edge list (the standard pull formulation); on symmetric graphs this
coincides with textbook PageRank.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..trace.buffer import TraceBuffer
from .base import (
    BLOCK_VERTICES,
    LOAD_OFFSET,
    LOAD_PROPERTY,
    LOAD_STRUCTURE,
    STACK_ACCESS,
    STORE_PROPERTY,
    Block,
    Tracer,
    Workload,
)

__all__ = ["PageRank", "trace_contributions"]


class PageRank(Workload):
    """GAP-style pull PageRank."""

    name = "PR"
    property_names = ("score", "contrib")
    gathered_property = "contrib"

    def recommended_skip(self, graph) -> int:
        """Skip the first contribution pass (3 refs/vertex) plus a margin
        so recording starts inside the gather phase, which dominates a
        full iteration."""
        return 3 * graph.num_vertices + graph.num_vertices // 8

    def reference(
        self,
        graph: CSRGraph,
        damping: float = 0.85,
        iterations: int = 10,
        tolerance: float = 0.0,
    ) -> np.ndarray:
        """Vectorized PageRank; returns the score vector."""
        n = graph.num_vertices
        degrees = np.maximum(graph.out_degrees(), 1)
        score = np.full(n, 1.0 / n)
        base = (1.0 - damping) / n
        seg_ids = np.repeat(np.arange(n, dtype=np.int64), graph.out_degrees())
        for _ in range(iterations):
            contrib = score / degrees
            gathered = np.bincount(
                seg_ids, weights=contrib[graph.neighbors], minlength=n
            )
            new_score = base + damping * gathered
            delta = np.abs(new_score - score).sum()
            score = new_score
            if tolerance and delta < tolerance:
                break
        return score

    def trace_into(
        self,
        graph: CSRGraph,
        tracer: Tracer,
        damping: float = 0.85,
        iterations: int = 10,
        tolerance: float = 0.0,
        vertex_range: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Traced PageRank mirroring :meth:`reference` access-for-access.

        Per vertex ``u``, the contribution pass emits a stack access, a
        ``score[u]`` load and a ``contrib[u]`` store.  Per vertex ``v``,
        the gather pass emits a stack access, the ``offsets[v + 1]`` load,
        then for each CSR edge a structure load and the ``contrib`` load
        that depends on it (the first structure load depends on the
        offset load), and a ``score[v]`` store.  The CSR arrays alone fix
        this order, so each pass is built in NumPy over blocks of
        :data:`BLOCK_VERTICES` vertices and recorded with
        :meth:`~repro.trace.buffer.TraceBuffer.extend`.  Gathered sums
        accumulate in CSR edge order and ``delta`` in vertex order, so
        scores are the same floats a per-reference loop computes.

        ``vertex_range`` restricts both passes to ``[lo, hi)`` — the
        static vertex partitioning a parallel GAP run gives each thread.
        Scores outside the range are not updated (they belong to other
        cores' traces), so partitioned results are per-core partial views.
        """
        n = graph.num_vertices
        v_lo, v_hi = vertex_range if vertex_range is not None else (0, n)
        offsets = graph.offsets
        neighbors = graph.neighbors
        degrees = np.maximum(np.diff(offsets), 1).astype(np.float64)
        score = np.full(n, 1.0 / n)
        contrib = np.zeros(n)
        base = (1.0 - damping) / n
        layout = tracer.layout
        stack = layout.stack
        score_region = layout.properties["score"]
        contrib_region = layout.properties["contrib"]
        blocks = [
            np.arange(lo, min(lo + BLOCK_VERTICES, v_hi))
            for lo in range(v_lo, v_hi, BLOCK_VERTICES)
        ]
        for it in range(iterations):
            tracer.phase("iteration:%d" % it)
            trace_contributions(tracer.tb, layout, blocks, score, contrib, degrees)
            # Gather pass: offsets → structure stream → property gather.
            delta = 0.0
            for v in blocks:
                first_edge, stop_edge = offsets[v[0]], offsets[v[-1] + 1]
                edge_rank = np.arange(stop_edge - first_edge)
                degree = offsets[v + 1] - offsets[v]
                owner = np.repeat(np.arange(len(v)), degree)
                # Vertex k's references start after 3 per earlier vertex
                # and 2 per earlier edge.
                vertex_pos = 3 * np.arange(len(v)) + 2 * (offsets[v] - first_edge)
                struct_pos = 3 * owner + 2 * edge_rank + 2
                block = Block(tracer.tb, 3 * len(v) + 2 * len(edge_rank))
                block.put(vertex_pos, stack, v % stack.num_elements, STACK_ACCESS)
                block.put(vertex_pos + 1, layout.offsets, v + 1, LOAD_OFFSET)
                block.put(
                    struct_pos,
                    layout.structure,
                    first_edge + edge_rank,
                    LOAD_STRUCTURE,
                )
                chased = vertex_pos[degree > 0]
                block.dep[chased + 2] = block.first + chased + 1
                u = neighbors[first_edge:stop_edge]
                block.put(
                    struct_pos + 1, contrib_region, u, LOAD_PROPERTY, dep=struct_pos
                )
                block.put(vertex_pos + 2 + 2 * degree, score_region, v, STORE_PROPERTY)
                block.record()
                # bincount adds each vertex's contributions in CSR order, and
                # cumsum (unlike sum) adds the deltas one vertex at a time.
                total = np.bincount(owner, weights=contrib[u], minlength=len(v))
                new = base + damping * total
                delta = np.cumsum(np.append(delta, np.abs(new - score[v])))[-1]
                score[v] = new
            if tolerance and delta < tolerance:
                break
        return score


def trace_contributions(
    tb: TraceBuffer,
    layout,
    blocks: list[np.ndarray],
    score: np.ndarray,
    contrib: np.ndarray,
    degrees: np.ndarray,
) -> None:
    """The contribution pass: ``contrib[u] = score[u] / degrees[u]``.

    Per vertex ``u`` of each block in turn: a stack access, a
    ``score[u]`` load and a ``contrib[u]`` store.  ``layout`` is a
    ``GraphLayout`` or an ``EdgeListLayout``; both PageRank kernels run
    this pass.
    """
    stack = layout.stack
    score_region = layout.properties["score"]
    contrib_region = layout.properties["contrib"]
    for u in blocks:
        block = Block(tb, 3 * len(u))
        pos = 3 * np.arange(len(u))
        block.put(pos, stack, u % stack.num_elements, STACK_ACCESS)
        block.put(pos + 1, score_region, u, LOAD_PROPERTY)
        block.put(pos + 2, contrib_region, u, STORE_PROPERTY)
        block.record()
        contrib[u] = score[u] / degrees[u]
