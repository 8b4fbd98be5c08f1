"""Connected Components (CC): Shiloach–Vishkin style label propagation.

The GAP CC kernel sweeps all vertices in sequential order (an all-active
algorithm: no worklist), hooking each vertex's label to the minimum label
among its neighbors, then compresses label trees by pointer jumping
(``comp[comp[v]]`` — a pure load→load dependency chain on property data).

The strictly sequential vertex order is why the paper finds CC (with PR)
to have near-perfect structure prefetch accuracy (Fig. 14).

Directed inputs are treated as undirected connectivity, matching GAP.

Both sweeps are traced in blocks of contiguous vertices.  Which
references a vertex emits depends on labels that earlier vertices of the
same sweep updated, so a loop over plain lists first runs a block's
label updates in the sweep's order and notes only what shapes its
references: which hooking edges pull a neighbor's label down, which
labels each pointer jump loads, and which vertices store their own
label.  NumPy then lays out the block's references and one
``TraceBuffer.extend`` records them.  The trace is the one a
per-reference loop records (``tests/workloads/cc_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .base import (
    BLOCK_REFS,
    BLOCK_VERTICES,
    LOAD_OFFSET,
    LOAD_PROPERTY,
    STACK_ACCESS,
    STORE_PROPERTY,
    Tracer,
    VisitBlock,
    Workload,
)

__all__ = ["ConnectedComponents"]


class ConnectedComponents(Workload):
    """GAP-style Shiloach–Vishkin connected components."""

    name = "CC"
    property_names = ("comp",)
    gathered_property = "comp"

    def recommended_skip(self, graph) -> int:
        """Short warm-up: the hooking sweep is steady state from the start."""
        return graph.num_vertices // 8

    def reference(self, graph: CSRGraph) -> np.ndarray:
        """Exact components via scipy; labels are canonical minima."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        n = graph.num_vertices
        matrix = csr_matrix(
            (
                np.ones(graph.num_edges, dtype=np.int8),
                graph.neighbors.astype(np.int64),
                graph.offsets,
            ),
            shape=(n, n),
        )
        _, labels = connected_components(matrix, directed=False)
        # Canonicalize: each component labelled by its smallest vertex ID,
        # so results compare directly against the traced kernel's labels.
        canon = np.full(labels.max() + 1 if n else 0, n, dtype=np.int64)
        np.minimum.at(canon, labels, np.arange(n))
        return canon[labels]

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
        comp = list(range(n))
        # Each vertex makes at least 3 references in either sweep, and
        # 2 more per edge in the hooking sweep.
        heads = 3 * np.arange(n + 1)
        hooking = _blocks(v_lo, v_hi, heads + 2 * graph.offsets)
        compression = _blocks(v_lo, v_hi, heads)
        changed = True
        round_no = 0
        while changed:
            tracer.phase("iteration:%d" % round_no)
            round_no += 1
            changed = False
            for lo, hi in hooking:
                changed |= _trace_hooking(graph, tracer, comp, lo, hi)
            for lo, hi in compression:
                _trace_compression(tracer, comp, lo, hi)
        return np.array(comp, dtype=np.int64)


def _blocks(lo: int, hi: int, refs_before: np.ndarray) -> list[tuple[int, int]]:
    """Split vertices ``[lo, hi)`` into blocks of contiguous vertices.

    ``refs_before[v]`` is the least number of references a sweep makes
    before vertex ``v``.  A block ends at ``BLOCK_VERTICES`` vertices or
    once that many references reach ``BLOCK_REFS``, whichever is first.
    """
    blocks = []
    while lo < hi:
        end = int(np.searchsorted(refs_before, refs_before[lo] + BLOCK_REFS))
        end = min(max(end, lo + 1), lo + BLOCK_VERTICES, hi)
        blocks.append((lo, end))
        lo = end
    return blocks


def _trace_hooking(
    graph: CSRGraph, tracer: Tracer, comp: list[int], lo: int, hi: int
) -> bool:
    """Trace the hooking sweep over vertices ``[lo, hi)``; True if it stored.

    Vertex ``u`` makes a stack access, loads ``comp[u]`` and
    ``offsets[u + 1]``.  Each edge loads its structure entry and the
    neighbor's label; an edge whose neighbor's label is above the
    running minimum stores the minimum there.  A vertex whose minimum
    differs from its label (re-read: a self-loop may have lowered it)
    then stores its label.  Any store means the labels changed.
    """
    offsets = graph.offsets
    base = int(offsets[lo])
    targets = graph.neighbors[base : offsets[hi]]
    bounds = (offsets[lo : hi + 1] - base).tolist()
    nbrs = targets.tolist()
    pulls: list[int] = []  # edges (block positions) that store
    hooks: list[int] = []  # vertices that store their own label
    for u, start, stop in zip(range(lo, hi), bounds, bounds[1:]):
        cu = comp[u]
        for e in range(start, stop):
            v = nbrs[e]
            cv = comp[v]
            if cv < cu:
                cu = cv
            elif cu < cv:
                # Undirected hooking: pull the neighbor down too.
                comp[v] = cu
                pulls.append(e)
        if cu != comp[u]:
            comp[u] = cu
            hooks.append(u)
    layout = tracer.layout
    labels = layout.properties["comp"]
    vertices = np.arange(lo, hi)
    pulled = np.array(pulls, dtype=np.int64)
    hooked = np.array(hooks, dtype=np.int64) - lo
    edge_refs = np.full(len(nbrs), 2)
    edge_refs[pulled] = 3
    tail = np.zeros(hi - lo, dtype=np.int64)
    tail[hooked] = 1
    block = VisitBlock(tracer.tb, np.diff(offsets[lo : hi + 1]), edge_refs, tail)
    pos = block.vertex_pos
    block.put(pos, layout.stack, vertices % layout.stack.num_elements, STACK_ACCESS)
    block.put(pos + 1, labels, vertices, LOAD_PROPERTY)
    block.put(pos + 2, layout.offsets, vertices + 1, LOAD_OFFSET)
    block.put_edges(layout, np.arange(base, base + len(nbrs)), labels, targets)
    pos = block.edge_pos[pulled]
    block.put(pos + 2, labels, targets[pulled], STORE_PROPERTY, dep=pos)
    block.put(block.tail_pos[hooked], labels, vertices[hooked], STORE_PROPERTY)
    block.record()
    return bool(pulls or hooks)


def _trace_compression(tracer: Tracer, comp: list[int], lo: int, hi: int) -> None:
    """Trace the compression sweep over vertices ``[lo, hi)``.

    Vertex ``u`` makes a stack access and loads ``comp[u]``, then jumps
    from label to label, loading each (every load depends on the one
    before), until it loads a label that labels itself.  If that root
    is not ``u``'s label, ``u`` stores it.  The jumps take the places of
    a visit's edges in a :class:`VisitBlock` with a two-reference head.
    """
    jumps: list[int] = []  # each vertex's loaded labels, in order
    ends: list[int] = []  # len(jumps) after each vertex
    roots: list[int] = []  # vertices that store their root
    for u in range(lo, hi):
        c = comp[u]
        jumps.append(c)
        up = comp[c]
        while up != c:
            c = up
            jumps.append(c)
            up = comp[c]
        ends.append(len(jumps))
        if c != comp[u]:
            comp[u] = c
            roots.append(u)
    layout = tracer.layout
    labels = layout.properties["comp"]
    vertices = np.arange(lo, hi)
    rooted = np.array(roots, dtype=np.int64) - lo
    tail = np.zeros(hi - lo, dtype=np.int64)
    tail[rooted] = 1
    hops = np.diff(ends, prepend=0)
    block = VisitBlock(tracer.tb, hops, np.ones(len(jumps), dtype=np.int64), tail, head=2)
    pos = block.vertex_pos
    block.put(pos, layout.stack, vertices % layout.stack.num_elements, STACK_ACCESS)
    block.put(pos + 1, labels, vertices, LOAD_PROPERTY)
    pos = block.edge_pos
    block.put(pos, labels, np.array(jumps, dtype=np.int64), LOAD_PROPERTY, dep=pos - 1)
    block.put(block.tail_pos[rooted], labels, vertices[rooted], STORE_PROPERTY)
    block.record()
