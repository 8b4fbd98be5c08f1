"""The per-reference CC emitter: the oracle for block emission.

``ConnectedComponents.trace_into`` decides each block of its hooking
and compression sweeps in a plain-list loop and lays it out in NumPy.
The loop below is the emitter it replaced, kept unchanged: one
``Tracer`` call per reference, each bounds-checked by ``Region.addr``
and recorded by ``TraceBuffer.append``.  The parity tests trace both
and demand the same arrays, phases, completion and labels.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.trace.record import NO_DEP
from repro.workloads import ConnectedComponents, Tracer

__all__ = ["PerReferenceCC"]


class PerReferenceCC(ConnectedComponents):
    """Shiloach–Vishkin CC traced one reference at a time."""

    def trace_into(
        self,
        graph: CSRGraph,
        tracer: Tracer,
        vertex_range: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """Traced Shiloach–Vishkin label propagation with compression.

        ``vertex_range`` restricts both sweeps to ``[lo, hi)`` for
        partitioned multi-core tracing; the labels then converge only
        within the partition's reach (a per-core partial view).
        """
        n = graph.num_vertices
        v_lo, v_hi = vertex_range if vertex_range is not None else (0, n)
        offsets, neighbors = graph.offsets, graph.neighbors
        comp = np.arange(n, dtype=np.int64)
        load_prop = tracer.load_property
        store_prop = tracer.store_property
        load_struct = tracer.load_structure
        load_off = tracer.load_offset
        changed = True
        round_no = 0
        while changed:
            tracer.phase("iteration:%d" % round_no)
            round_no += 1
            changed = False
            # Hooking sweep: sequential vertices, streaming structure.
            for u in range(v_lo, v_hi):
                tracer.stack_access(u)
                load_prop("comp", u)
                off_dep = load_off(u + 1)
                dep = off_dep
                cu = int(comp[u])
                for j in range(int(offsets[u]), int(offsets[u + 1])):
                    s = load_struct(j, dep=dep)
                    dep = NO_DEP
                    v = int(neighbors[j])
                    load_prop("comp", v, dep=s)
                    cv = int(comp[v])
                    if cv < cu:
                        cu = cv
                        changed = True
                    elif cu < cv:
                        # Undirected hooking: pull the neighbor down too.
                        comp[v] = cu
                        store_prop("comp", v, dep=s)
                        changed = True
                if cu != comp[u]:
                    comp[u] = cu
                    store_prop("comp", u)
            # Compression sweep: pointer jumping — chained property loads.
            for u in range(v_lo, v_hi):
                tracer.stack_access(u)
                d1 = load_prop("comp", u)
                c = int(comp[u])
                d2 = load_prop("comp", c, dep=d1)
                while comp[c] != c:
                    c = int(comp[c])
                    d2 = load_prop("comp", c, dep=d2)
                if c != comp[u]:
                    comp[u] = c
                    store_prop("comp", u)
        return comp
