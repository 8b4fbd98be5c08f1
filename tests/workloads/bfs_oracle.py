"""The per-reference BFS emitter: the oracle for block emission.

``BFS.trace_into`` builds each top-down level in NumPy blocks.  The
loop below is the emitter it replaced, kept unchanged: one ``Tracer``
call per reference, each bounds-checked by ``Region.addr`` and recorded
by ``TraceBuffer.append``.  The parity tests trace both and demand the
same arrays, phases, completion and parents.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.trace.record import NO_DEP
from repro.workloads import BFS, Tracer, default_source
from repro.workloads.bfs import _NEVER

__all__ = ["PerReferenceBFS"]


class PerReferenceBFS(BFS):
    """BFS traced one reference at a time."""

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
        cap = worklist.num_elements
        queue = [source]
        push_ptr = 1
        pop_ptr = 0
        tracer.store_intermediate(worklist, 0)
        load_prop = tracer.load_property
        store_prop = tracer.store_property
        load_struct = tracer.load_structure
        load_off = tracer.load_offset
        load_im = tracer.load_intermediate
        store_im = tracer.store_intermediate
        level = 0
        switch_at = max(n // alpha, 1)
        while queue:
            bottom_up = direction_optimizing and len(queue) > switch_at
            tracer.phase("%s:%d" % ("bottomup" if bottom_up else "level", level))
            if bottom_up:
                # Tag the current frontier (sequential-ish property stores).
                for u in queue:
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
            else:
                nxt = []
                for u in queue:
                    tracer.stack_access(u)
                    u_dep = load_im(worklist, pop_ptr % cap)
                    pop_ptr += 1
                    off_dep = load_off(u + 1, dep=u_dep)
                    dep = off_dep
                    for j in range(int(offsets[u]), int(offsets[u + 1])):
                        s = load_struct(j, dep=dep)
                        dep = NO_DEP
                        v = int(neighbors[j])
                        load_prop("parent", v, dep=s)
                        if parent[v] == -1:
                            parent[v] = u
                            store_prop("parent", v, dep=s)
                            store_im(worklist, push_ptr % cap)
                            push_ptr += 1
                            nxt.append(v)
            queue = nxt
            level += 1
        return parent
