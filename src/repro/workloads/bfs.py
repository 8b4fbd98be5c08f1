"""Breadth-First Search (BFS): traverse the graph level by level.

The default traced kernel is worklist-driven **top-down** BFS: the
frontier is an explicit queue (*intermediate* data); visiting a frontier
vertex loads its offset, streams its neighbor IDs (*structure*), and
checks each neighbor's ``parent`` entry (*property*, dependent on the
structure load).  The worklist-driven random starting points of
structure streams are why the paper finds BFS the hardest workload for
DROPLET's structure-only streamer (Section VII-C1).

GAP's production BFS is **direction-optimizing** (Beamer's hybrid): when
the frontier grows large it switches to bottom-up sweeps in which every
unvisited vertex scans its neighbors for a frontier member.  Pass
``direction_optimizing=True`` to trace that hybrid; its bottom-up phases
turn BFS into an all-active sequential sweep (streaming structure).  The
``front`` array holds, per vertex, the BFS level at which it joined the
frontier — a generation-tagged frontier bitmap, vertex-indexed and
therefore *property* data in the paper's terminology.

Both directions are traced in NumPy blocks, one per chunk of at most
``BLOCK_VERTICES`` vertices, each laid out in NumPy and recorded with
one ``TraceBuffer.extend``.  In a top-down level, which references a
chunk of the frontier emits depends only on ``parent`` at the chunk's
start and on the first occurrence of each neighbor in edge order; the
chunk's claims are applied before the next chunk is built.  A bottom-up
sweep first tags the frontier in one block of stores.  A vertex's scan
then depends only on its own ``parent`` entry and on the ``front``
tags, which the sweep does not change: it ends at the first edge to a
frontier member (``first_claims`` over the vertex owning each edge).
The trace is the one a per-reference loop records
(``tests/workloads/bfs_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..memory.allocator import Region
from .base import (
    BLOCK_VERTICES,
    LOAD_OFFSET,
    LOAD_PROPERTY,
    STACK_ACCESS,
    STORE_INTERMEDIATE,
    STORE_PROPERTY,
    Block,
    Tracer,
    VisitBlock,
    Workload,
    adjacency,
    first_claims,
)

__all__ = ["BFS", "default_source"]

#: "Never in any frontier" generation tag.
_NEVER = -1


def default_source(graph: CSRGraph, seed: int = 0) -> int:
    """Deterministic source pick: a high-degree vertex, varied by ``seed``.

    GAP picks random non-isolated sources; we pick among the top-64
    highest-degree vertices so traversals reach most of the graph.
    """
    degrees = graph.out_degrees()
    candidates = np.argsort(degrees)[::-1][:64]
    candidates = candidates[degrees[candidates] > 0]
    if len(candidates) == 0:
        raise ValueError("graph %r has no edges" % graph.name)
    return int(candidates[seed % len(candidates)])


class BFS(Workload):
    """GAP-style BFS producing a parent array (top-down or hybrid)."""

    name = "BFS"
    property_names = ("parent", "front")
    gathered_property = "parent"

    @property
    def gathered_properties(self) -> tuple[str, ...]:
        """Both the parent checks (top-down) and the frontier-tag checks
        (bottom-up) are gathered through neighbor IDs."""
        return ("parent", "front")

    def reference(self, graph: CSRGraph, source: int | None = None) -> np.ndarray:
        """Level-synchronous BFS; returns the parent array (-1 unreached)."""
        n = graph.num_vertices
        if source is None:
            source = default_source(graph)
        parent = np.full(n, -1, dtype=np.int64)
        parent[source] = source
        frontier = np.array([source], dtype=np.int64)
        offsets, neighbors = graph.offsets, graph.neighbors
        while len(frontier):
            spans = [
                neighbors[offsets[u] : offsets[u + 1]] for u in frontier
            ]
            srcs = np.repeat(frontier, [len(s) for s in spans])
            dsts = np.concatenate(spans) if spans else np.empty(0, dtype=np.int32)
            fresh = parent[dsts] == -1
            # First writer wins within a level, as in sequential BFS.
            next_frontier: list[int] = []
            for u, v in zip(srcs[fresh], dsts[fresh]):
                if parent[v] == -1:
                    parent[v] = u
                    next_frontier.append(int(v))
            frontier = np.array(next_frontier, dtype=np.int64)
        return parent

    def trace_into(
        self,
        graph: CSRGraph,
        tracer: Tracer,
        source: int | None = None,
        direction_optimizing: bool = False,
        alpha: int = 14,
    ) -> np.ndarray:
        """Traced BFS.

        ``direction_optimizing=True`` enables bottom-up sweeps whenever
        the frontier exceeds ``num_vertices / alpha`` (a simplified
        Beamer switch; GAP compares scouted edges).  Bottom-up traversal
        requires an undirected reachability interpretation, which all of
        our datasets satisfy (GAP's loader symmetrizes them likewise).
        """
        n = graph.num_vertices
        if source is None:
            source = default_source(graph)
        parent = np.full(n, -1, dtype=np.int64)
        parent[source] = source
        # Generation-tagged frontier membership: front[v] == level means v
        # was in the level-th frontier (no per-level bitmap clearing).
        front = np.full(n, _NEVER, dtype=np.int64)
        # The frontier queue is a FIFO ring over an intermediate region:
        # pushes advance ``push_ptr``, pops advance ``pop_ptr``.
        worklist = tracer.layout.add_intermediate("bfs_frontier", max(2 * n, 4))
        queue = np.array([source], dtype=np.int64)
        push_ptr = 1
        pop_ptr = 0
        tracer.store_intermediate(worklist, 0)
        level = 0
        switch_at = max(n // alpha, 1)
        while len(queue):
            bottom_up = direction_optimizing and len(queue) > switch_at
            tracer.phase("%s:%d" % ("bottomup" if bottom_up else "level", level))
            if bottom_up:
                # Tag the current frontier (sequential-ish property stores).
                tags = Block(tracer.tb, len(queue))
                tags.put(
                    np.arange(len(queue)), tracer.layout.properties["front"],
                    queue, STORE_PROPERTY,
                )
                tags.record()
                front[queue] = level
                # All-active sweep: every unvisited vertex scans its
                # neighbors for a frontier member — streaming structure.
                queue = np.concatenate([
                    _trace_bottom_up(
                        graph, tracer, parent, front, level,
                        np.arange(lo, min(lo + BLOCK_VERTICES, n)),
                    )
                    for lo in range(0, n, BLOCK_VERTICES)
                ])
            else:
                nxt_chunks = []
                for lo in range(0, len(queue), BLOCK_VERTICES):
                    claimed = _trace_top_down(
                        graph, tracer, worklist, queue[lo : lo + BLOCK_VERTICES],
                        parent, pop_ptr + lo, push_ptr,
                    )
                    push_ptr += len(claimed)
                    nxt_chunks.append(claimed)
                pop_ptr += len(queue)
                queue = np.concatenate(nxt_chunks)
            level += 1
        return parent


def _trace_top_down(
    graph: CSRGraph,
    tracer: Tracer,
    worklist: Region,
    queue: np.ndarray,
    parent: np.ndarray,
    pop_ptr: int,
    push_ptr: int,
) -> np.ndarray:
    """Trace a top-down visit of ``queue``; returns the vertices it claims.

    Vertex ``u`` makes a stack access, pops itself from the worklist
    (element ``pop_ptr`` on) and loads ``offsets[u + 1]``.  Each edge
    loads its structure entry and the neighbor's ``parent`` entry.  The
    first edge to reach a neighbor whose ``parent`` is -1 also stores
    the parent and pushes the neighbor (element ``push_ptr`` on).  Only
    ``parent`` as the chunk found it and the first occurrence of each
    neighbor decide which edges do, so the chunk is built as one block;
    its claims are applied before the next chunk looks at ``parent``.
    """
    layout = tracer.layout
    parent_region = layout.properties["parent"]
    degree, owner, edges = adjacency(graph.offsets, queue)
    v = graph.neighbors[edges]
    claimed = first_claims(v, parent[v] == -1)
    edge_refs = np.full(len(v), 2)
    edge_refs[claimed] = 4
    block = VisitBlock(tracer.tb, degree, edge_refs)
    cap = worklist.num_elements
    pops = (pop_ptr + np.arange(len(queue))) % cap
    block.put_visits(
        layout, queue, worklist, pops, queue, edges, parent_region, v
    )
    pos = block.edge_pos[claimed]
    fresh = v[claimed]
    block.put(pos + 2, parent_region, fresh, STORE_PROPERTY, dep=pos)
    pushes = (push_ptr + np.arange(len(claimed))) % cap
    block.put(pos + 3, worklist, pushes, STORE_INTERMEDIATE)
    block.record()
    parent[fresh] = queue[owner[claimed]]
    return fresh.astype(np.int64)


def _trace_bottom_up(
    graph: CSRGraph,
    tracer: Tracer,
    parent: np.ndarray,
    front: np.ndarray,
    level: int,
    vertices: np.ndarray,
) -> np.ndarray:
    """Trace a bottom-up sweep over ``vertices``; returns those it claims.

    Vertex ``u`` makes a stack access and loads ``parent[u]``; if ``u``
    is unvisited it loads ``offsets[u + 1]`` and scans its edges, each
    a structure load and a dependent ``front`` load, up to and including
    the first edge to a vertex tagged with ``level``.  That edge's
    neighbor becomes ``u``'s parent, which ``u`` then stores.  Only
    ``u``'s own ``parent`` entry and the ``front`` tags decide this, and
    the sweep changes neither before ``u``, so the chunk is one block.
    """
    layout = tracer.layout
    parents = layout.properties["parent"]
    fresh = parent[vertices] == -1
    unvisited = np.flatnonzero(fresh)
    scanners = vertices[unvisited]
    degree, owner, edges = adjacency(graph.offsets, scanners)
    v = graph.neighbors[edges]
    exits = first_claims(owner, front[v] == level)
    found = owner[exits]
    start = np.cumsum(degree) - degree
    stop = start + degree
    stop[found] = exits + 1  # a scan ends at its first edge to the frontier
    walked = np.arange(len(edges)) < stop[owner]
    steps = np.zeros(len(vertices), dtype=np.int64)
    steps[unvisited] = stop - start
    tail = np.zeros(len(vertices), dtype=np.int64)
    tail[unvisited[found]] = 1
    block = VisitBlock(tracer.tb, steps, np.full(np.count_nonzero(walked), 2), tail, 2 + fresh)
    pos = block.vertex_pos
    block.put(pos, layout.stack, vertices % layout.stack.num_elements, STACK_ACCESS)
    block.put(pos + 1, parents, vertices, LOAD_PROPERTY)
    block.put(pos[unvisited] + 2, layout.offsets, scanners + 1, LOAD_OFFSET)
    block.put_edges(layout, edges[walked], layout.properties["front"], v[walked])
    claimed = scanners[found]
    block.put(block.tail_pos[unvisited[found]], parents, claimed, STORE_PROPERTY)
    block.record()
    parent[claimed] = v[exits]
    return claimed
