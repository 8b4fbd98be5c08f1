"""Betweenness Centrality (BC): Brandes' algorithm, sampled sources.

GAP's BC approximates centrality from a handful of sampled sources.  Each
source contributes a forward BFS phase (shortest-path counts ``sigma``
and ``depth``, with an explicit visit-order worklist — intermediate data)
and a backward accumulation phase walking the worklist in reverse,
checking every neighbor's depth (*property*, structure-dependent) to
identify successors — GAP's formulation avoids predecessor lists.

Both phases are traced in NumPy blocks, each over a chunk of at most
``BLOCK_VERTICES`` vertices of one BFS level.  Forward, a chunk's
references depend only on ``depth`` at the chunk's start and on the
first occurrence of each neighbor in edge order; ``sigma`` accumulates
with ``np.add.at`` in edge order.  Backward, the addresses depend only
on the finished ``depth`` and ``sigma``; levels run deepest first, so
successors' ``delta`` is final, and ``delta[u]`` sums its terms in CSR
order.  Trace and scores are the ones a per-reference loop produces
(``tests/workloads/bc_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..memory.allocator import Region
from .base import (
    BLOCK_VERTICES,
    LOAD_PROPERTY,
    STORE_INTERMEDIATE,
    STORE_PROPERTY,
    Tracer,
    VisitBlock,
    Workload,
    adjacency,
    first_claims,
)
from .bfs import default_source

__all__ = ["BetweennessCentrality"]


class BetweennessCentrality(Workload):
    """GAP-style Brandes betweenness centrality over sampled sources."""

    name = "BC"
    property_names = ("bc", "sigma", "depth", "delta")
    gathered_property = "depth"

    @property
    def gathered_properties(self) -> tuple[str, ...]:
        """BC gathers depth, sigma and delta through the same neighbor IDs
        — the multi-property case of paper §VI."""
        return ("depth", "sigma", "delta")

    def _sources(self, graph: CSRGraph, num_sources: int) -> list[int]:
        return [default_source(graph, seed=k) for k in range(num_sources)]

    def reference(self, graph: CSRGraph, num_sources: int = 2) -> np.ndarray:
        """Unnormalized Brandes accumulation from the sampled sources."""
        n = graph.num_vertices
        offsets, neighbors = graph.offsets, graph.neighbors
        bc = np.zeros(n)
        for source in self._sources(graph, num_sources):
            depth = np.full(n, -1, dtype=np.int64)
            sigma = np.zeros(n)
            depth[source] = 0
            sigma[source] = 1.0
            order = [source]
            head = 0
            while head < len(order):
                u = order[head]
                head += 1
                for j in range(int(offsets[u]), int(offsets[u + 1])):
                    v = int(neighbors[j])
                    if depth[v] == -1:
                        depth[v] = depth[u] + 1
                        order.append(v)
                    if depth[v] == depth[u] + 1:
                        sigma[v] += sigma[u]
            delta = np.zeros(n)
            for u in reversed(order):
                for j in range(int(offsets[u]), int(offsets[u + 1])):
                    v = int(neighbors[j])
                    if depth[v] == depth[u] + 1 and sigma[v] > 0:
                        delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v])
                if u != source:
                    bc[u] += delta[u]
        return bc

    def trace_into(
        self, graph: CSRGraph, tracer: Tracer, num_sources: int = 2
    ) -> np.ndarray:
        """Traced Brandes BC mirroring :meth:`reference`.

        Both phases walk the visit order level by level, in chunks of at
        most :data:`BLOCK_VERTICES` vertices of one level, each built as
        one block (see :func:`_trace_forward` and
        :func:`_trace_backward`).
        """
        n = graph.num_vertices
        bc = np.zeros(n)
        worklist = tracer.layout.add_intermediate("bc_order", max(n, 4))
        for src_no, source in enumerate(self._sources(graph, num_sources)):
            tracer.phase("forward:%d" % src_no)
            depth = np.full(n, -1, dtype=np.int64)
            sigma = np.zeros(n)
            depth[source] = 0
            sigma[source] = 1.0
            order = np.empty(n, dtype=np.int64)
            order[0] = source
            tracer.store_intermediate(worklist, 0)
            # Forward phase: BFS with shortest-path counting.  When a
            # level starts, the whole of it is in ``order``.
            start, size = 0, 1
            while start < size:
                stop = size
                for lo in range(start, stop, BLOCK_VERTICES):
                    hi = min(lo + BLOCK_VERTICES, stop)
                    size = _trace_forward(
                        graph, tracer, worklist, order, lo, hi, size, depth, sigma
                    )
                start = stop
            # Backward phase: successor-check accumulation, deepest level
            # first, each level in reversed visit order.
            tracer.phase("backward:%d" % src_no)
            delta = np.zeros(n)
            level = depth[order[:size]]
            hi = size
            while hi > 0:
                level_start = int(np.searchsorted(level, level[hi - 1]))
                lo = max(hi - BLOCK_VERTICES, level_start)
                _trace_backward(
                    graph, tracer, worklist, order, lo, hi, source,
                    depth, sigma, delta, bc,
                )
                hi = lo
        return bc


def _trace_forward(
    graph: CSRGraph,
    tracer: Tracer,
    worklist: Region,
    order: np.ndarray,
    lo: int,
    hi: int,
    size: int,
    depth: np.ndarray,
    sigma: np.ndarray,
) -> int:
    """Trace the forward visits of ``order[lo:hi]``, all of one level.

    Vertex ``u`` at position ``p`` makes a stack access, loads worklist
    element ``p`` and ``offsets[u + 1]``.  Each edge loads its structure
    entry and the neighbor's ``depth``.  The first edge to reach a
    neighbor whose depth is -1 also stores its depth and appends it to
    the worklist (element ``size`` on).  Every edge into the next level
    (a neighbor whose depth was -1 or ``du + 1`` when the chunk began)
    then loads and stores the neighbor's ``sigma``.  Returns the new
    length of ``order``.
    """
    layout = tracer.layout
    depth_region = layout.properties["depth"]
    sigma_region = layout.properties["sigma"]
    u = order[lo:hi]
    degree, owner, edges = adjacency(graph.offsets, u)
    v = graph.neighbors[edges]
    dv = depth[v]
    claimed = first_claims(v, dv == -1)
    counted = np.flatnonzero((dv == -1) | (dv == depth[u[0]] + 1))
    edge_refs = np.full(len(v), 2)
    edge_refs[claimed] += 2
    edge_refs[counted] += 2
    block = VisitBlock(tracer.tb, degree, edge_refs)
    block.put_visits(
        layout, u, worklist, np.arange(lo, hi), u, edges, depth_region, v
    )
    pos = block.edge_pos[claimed]
    fresh = v[claimed]
    block.put(pos + 2, depth_region, fresh, STORE_PROPERTY, dep=pos)
    block.put(pos + 3, worklist, size + np.arange(len(fresh)), STORE_INTERMEDIATE)
    pos = block.edge_pos[counted]
    sigma_pos = pos + edge_refs[counted] - 2
    counted_v = v[counted]
    block.put(sigma_pos, sigma_region, counted_v, LOAD_PROPERTY, dep=pos)
    block.put(sigma_pos + 1, sigma_region, counted_v, STORE_PROPERTY, dep=pos)
    block.record()
    depth[fresh] = depth[u[0]] + 1
    order[size : size + len(fresh)] = fresh
    # add.at adds in edge order, one edge at a time, as the loop does.
    np.add.at(sigma, counted_v, sigma[u[owner[counted]]])
    return size + len(fresh)


def _trace_backward(
    graph: CSRGraph,
    tracer: Tracer,
    worklist: Region,
    order: np.ndarray,
    lo: int,
    hi: int,
    source: int,
    depth: np.ndarray,
    sigma: np.ndarray,
    delta: np.ndarray,
    bc: np.ndarray,
) -> None:
    """Trace the backward visits of ``order[lo:hi]``, all of one level.

    Positions ``p`` run from ``hi - 1`` down to ``lo``.  Vertex
    ``u = order[p]`` makes stack access ``p``, loads worklist element
    ``p`` and ``offsets[u + 1]``.  Each edge loads its structure entry
    and the neighbor's ``depth``; a successor (one level deeper, with
    ``sigma > 0``) also loads its ``sigma`` and ``delta``.  Then ``u``
    stores ``delta[u]`` and, unless it is the source, loads and stores
    ``bc[u]``.  Successors lie in deeper levels, traced before, so
    their ``delta`` is final.
    """
    layout = tracer.layout
    props = layout.properties
    pos = np.arange(hi - 1, lo - 1, -1)
    u = order[pos]
    degree, owner, edges = adjacency(graph.offsets, u)
    v = graph.neighbors[edges]
    succ = np.flatnonzero((depth[v] == depth[u[0]] + 1) & (sigma[v] > 0))
    edge_refs = np.full(len(v), 2)
    edge_refs[succ] = 4
    scored = np.flatnonzero(u != source)
    tail = np.ones(len(u), dtype=np.int64)
    tail[scored] = 3
    block = VisitBlock(tracer.tb, degree, edge_refs, tail)
    block.put_visits(layout, pos, worklist, pos, u, edges, props["depth"], v)
    edge_pos = block.edge_pos[succ]
    w = v[succ]
    block.put(edge_pos + 2, props["sigma"], w, LOAD_PROPERTY, dep=edge_pos)
    block.put(edge_pos + 3, props["delta"], w, LOAD_PROPERTY, dep=edge_pos)
    block.put(block.tail_pos, props["delta"], u, STORE_PROPERTY)
    tail_pos = block.tail_pos[scored]
    block.put(tail_pos + 1, props["bc"], u[scored], LOAD_PROPERTY)
    block.put(tail_pos + 2, props["bc"], u[scored], STORE_PROPERTY)
    block.record()
    terms = sigma[u[owner[succ]]] / sigma[w] * (1.0 + delta[w])
    # bincount adds each vertex's terms in CSR order, from 0.0, as the
    # loop's ``acc`` does.
    acc = np.bincount(owner[succ], weights=terms, minlength=len(u))
    delta[u] = acc
    bc[u[scored]] += acc[scored]
