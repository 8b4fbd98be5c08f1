"""The per-reference PageRank emitter: the oracle for block emission.

``PageRank.trace_into`` builds each pass in NumPy blocks.  The loop
below is the emitter it replaced, kept unchanged: one ``Tracer`` call
per reference, each bounds-checked by ``Region.addr`` and recorded by
``TraceBuffer.append``.  The parity tests trace both and demand the same
arrays, phases, completion and scores.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.trace.record import NO_DEP
from repro.workloads import PageRank, Tracer

__all__ = ["PerReferencePageRank"]


class PerReferencePageRank(PageRank):
    """PageRank traced one reference at a time."""

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
        load_prop = tracer.load_property
        store_prop = tracer.store_property
        load_struct = tracer.load_structure
        load_off = tracer.load_offset
        for it in range(iterations):
            tracer.phase("iteration:%d" % it)
            # Contribution pass: sequential property read-modify-write.
            for u in range(v_lo, v_hi):
                tracer.stack_access(u)
                load_prop("score", u)
                contrib[u] = score[u] / degrees[u]
                store_prop("contrib", u)
            # Gather pass: offsets → structure stream → property gather.
            delta = 0.0
            for v in range(v_lo, v_hi):
                tracer.stack_access(v)
                off_dep = load_off(v + 1)
                start, stop = int(offsets[v]), int(offsets[v + 1])
                total = 0.0
                dep = off_dep
                for j in range(start, stop):
                    s = load_struct(j, dep=dep)
                    dep = NO_DEP  # only the first structure load chases the offset
                    u = int(neighbors[j])
                    load_prop("contrib", u, dep=s)
                    total += contrib[u]
                new_v = base + damping * total
                delta += abs(new_v - score[v])
                score[v] = new_v
                store_prop("score", v)
            if tolerance and delta < tolerance:
                break
        return score
