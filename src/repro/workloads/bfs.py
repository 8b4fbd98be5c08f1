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

Top-down levels are traced in NumPy blocks, one per chunk of at most
``BLOCK_VERTICES`` frontier vertices.  Which references a chunk emits
depends only on ``parent`` at the chunk's start and on the first
occurrence of each neighbor in edge order, so the chunk's references
are laid out in NumPy and recorded with one ``TraceBuffer.extend``;
the chunk's claims are applied before the next chunk is built.  The
trace is the one a per-reference loop records
(``tests/workloads/bfs_oracle.py``).  Bottom-up sweeps stay
per-reference: their early exit makes each vertex's references depend
on the order its neighbors are found in.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..memory.allocator import Region
from ..trace.record import NO_DEP
from .base import (
    BLOCK_VERTICES,
    STORE_INTERMEDIATE,
    STORE_PROPERTY,
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
        offsets, neighbors = graph.offsets, graph.neighbors
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
        load_prop = tracer.load_property
        store_prop = tracer.store_property
        load_struct = tracer.load_structure
        load_off = tracer.load_offset
        level = 0
        switch_at = max(n // alpha, 1)
        while len(queue):
            bottom_up = direction_optimizing and len(queue) > switch_at
            tracer.phase("%s:%d" % ("bottomup" if bottom_up else "level", level))
            if bottom_up:
                # Tag the current frontier (sequential-ish property stores).
                for u in queue.tolist():
                    front[u] = level
                    store_prop("front", u)
                # All-active sweep: every unvisited vertex scans its
                # neighbors for a frontier member — streaming structure.
                nxt: list[int] = []
                for u in range(n):
                    tracer.stack_access(u)
                    load_prop("parent", u)
                    if parent[u] != -1:
                        continue
                    off_dep = load_off(u + 1)
                    dep = off_dep
                    for j in range(int(offsets[u]), int(offsets[u + 1])):
                        s = load_struct(j, dep=dep)
                        dep = NO_DEP
                        v = int(neighbors[j])
                        load_prop("front", v, dep=s)
                        if front[v] == level:
                            parent[u] = v
                            store_prop("parent", u)
                            nxt.append(u)
                            break  # early exit, as in GAP's bottom-up step
                queue = np.array(nxt, dtype=np.int64)
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
