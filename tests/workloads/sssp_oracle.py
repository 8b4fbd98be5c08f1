"""The per-reference SSSP emitter: the oracle for block emission.

``SSSP.trace_into`` decides each block of bin visits in a plain-list
loop and lays it out in NumPy.  The loop below is the emitter it
replaced, kept unchanged: one ``Tracer`` call per reference, each
bounds-checked by ``Region.addr`` and recorded by
``TraceBuffer.append``.  The parity tests trace both and demand the
same arrays, phases, completion and distances.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.trace.record import NO_DEP
from repro.workloads import INF_DIST, SSSP, Tracer, default_source

__all__ = ["PerReferenceSSSP"]


class PerReferenceSSSP(SSSP):
    """Delta-stepping SSSP traced one reference at a time."""

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
        offsets, neighbors, weights = graph.offsets, graph.neighbors, graph.weights
        dist = np.full(n, INF_DIST, dtype=np.int64)
        dist[source] = 0
        # Bins region: every push/pop is an intermediate access at a
        # monotonically advancing ring slot, like GAP's bucket vectors.
        bins_region = tracer.layout.add_intermediate("sssp_bins", max(4 * graph.num_edges, 4))
        cap = bins_region.num_elements
        push_ptr = 0
        pop_ptr = 0
        bins: dict[int, list[int]] = {0: [source]}
        tracer.store_intermediate(bins_region, 0)
        push_ptr += 1
        load_prop = tracer.load_property
        store_prop = tracer.store_property
        load_struct = tracer.load_structure
        load_off = tracer.load_offset
        load_im = tracer.load_intermediate
        store_im = tracer.store_intermediate
        current_bin = 0
        while bins:
            current_bin = min(bins)
            tracer.phase("bin:%d" % current_bin)
            frontier = bins.pop(current_bin)
            while frontier:
                u = frontier.pop()
                tracer.stack_access(u)
                u_dep = load_im(bins_region, pop_ptr % cap)
                pop_ptr += 1
                # Settled check: skip stale bin entries.
                load_prop("dist", u, dep=u_dep)
                if dist[u] // delta < current_bin:
                    continue
                off_dep = load_off(u + 1, dep=u_dep)
                dep = off_dep
                du = int(dist[u])
                for j in range(int(offsets[u]), int(offsets[u + 1])):
                    s = load_struct(j, dep=dep)  # 8B entry: ID + weight
                    dep = NO_DEP
                    v = int(neighbors[j])
                    w = int(weights[j])
                    load_prop("dist", v, dep=s)
                    nd = du + w
                    if nd < dist[v]:
                        dist[v] = nd
                        store_prop("dist", v, dep=s)
                        b = nd // delta
                        if b == current_bin:
                            frontier.append(v)
                        else:
                            bins.setdefault(b, []).append(v)
                        store_im(bins_region, push_ptr % cap)
                        push_ptr += 1
        return dist
