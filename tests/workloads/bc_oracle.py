"""The per-reference BC emitter: the oracle for block emission.

``BetweennessCentrality.trace_into`` builds its forward levels and its
backward sweep in NumPy blocks.  The loop below is the emitter it
replaced, kept unchanged: one ``Tracer`` call per reference, each
bounds-checked by ``Region.addr`` and recorded by
``TraceBuffer.append``.  The parity tests trace both and demand the
same arrays, phases, completion and scores.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.trace.record import NO_DEP
from repro.workloads import BetweennessCentrality, Tracer

__all__ = ["PerReferenceBC"]


class PerReferenceBC(BetweennessCentrality):
    """Brandes BC traced one reference at a time."""

    def trace_into(
        self, graph: CSRGraph, tracer: Tracer, num_sources: int = 2
    ) -> np.ndarray:
        """Traced Brandes BC mirroring :meth:`reference`."""
        n = graph.num_vertices
        offsets, neighbors = graph.offsets, graph.neighbors
        bc = np.zeros(n)
        worklist = tracer.layout.add_intermediate("bc_order", max(n, 4))
        load_prop = tracer.load_property
        store_prop = tracer.store_property
        load_struct = tracer.load_structure
        load_off = tracer.load_offset
        load_im = tracer.load_intermediate
        store_im = tracer.store_intermediate
        for src_no, source in enumerate(self._sources(graph, num_sources)):
            tracer.phase("forward:%d" % src_no)
            depth = np.full(n, -1, dtype=np.int64)
            sigma = np.zeros(n)
            depth[source] = 0
            sigma[source] = 1.0
            order = [source]
            store_im(worklist, 0)
            head = 0
            # Forward phase: BFS with shortest-path counting.
            while head < len(order):
                u = order[head]
                tracer.stack_access(u)
                u_dep = load_im(worklist, head)
                head += 1
                off_dep = load_off(u + 1, dep=u_dep)
                dep = off_dep
                du = int(depth[u])
                for j in range(int(offsets[u]), int(offsets[u + 1])):
                    s = load_struct(j, dep=dep)
                    dep = NO_DEP
                    v = int(neighbors[j])
                    load_prop("depth", v, dep=s)
                    if depth[v] == -1:
                        depth[v] = du + 1
                        store_prop("depth", v, dep=s)
                        store_im(worklist, len(order))
                        order.append(v)
                    if depth[v] == du + 1:
                        load_prop("sigma", v, dep=s)
                        sigma[v] += sigma[u]
                        store_prop("sigma", v, dep=s)
            # Backward phase: successor-check accumulation.
            tracer.phase("backward:%d" % src_no)
            delta = np.zeros(n)
            for pos in range(len(order) - 1, -1, -1):
                tracer.stack_access(pos)
                u_dep = load_im(worklist, pos)
                u = order[pos]
                off_dep = load_off(u + 1, dep=u_dep)
                dep = off_dep
                du = int(depth[u])
                acc = 0.0
                for j in range(int(offsets[u]), int(offsets[u + 1])):
                    s = load_struct(j, dep=dep)
                    dep = NO_DEP
                    v = int(neighbors[j])
                    load_prop("depth", v, dep=s)
                    if depth[v] == du + 1 and sigma[v] > 0:
                        load_prop("sigma", v, dep=s)
                        load_prop("delta", v, dep=s)
                        acc += sigma[u] / sigma[v] * (1.0 + delta[v])
                delta[u] = acc
                store_prop("delta", u)
                if u != source:
                    load_prop("bc", u)
                    bc[u] += acc
                    store_prop("bc", u)
        return bc
