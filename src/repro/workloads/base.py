"""Workload framework: traced GAP-style graph algorithms.

Each workload (Table II of the paper) provides two faces:

* :meth:`Workload.reference` — a fast, vectorized implementation used to
  validate algorithmic correctness, and
* :meth:`Workload.trace_into` — an instrumented implementation that emits
  the *annotated memory trace* (addresses, data types, load→load
  dependencies) that drives the simulator.

The instrumented implementations access memory exactly the way the GAP
C++ kernels do at the reference level: sequential offset reads, streaming
neighbor-ID (structure) reads whose first element depends on the offset
load, and indirectly indexed property reads that depend on the structure
load which produced the index — the 2-long dependency chains of the
paper's Observations #2/#3.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..graph.csr import CSRGraph
from ..memory.allocator import GraphLayout, Region
from ..trace.buffer import Trace, TraceBuffer, TraceFull
from ..trace.record import NO_DEP, DataType

__all__ = ["Workload", "Tracer", "TraceRun", "WorkloadError"]

#: Default non-memory instruction gaps charged per access kind.  Chosen so
#: the trace's refs-per-instruction ratio lands near the ~30% typical of
#: the GAP kernels, which makes MPKI figures comparable to the paper's.
GAP_OFFSET = 2
GAP_STRUCTURE = 1
GAP_PROPERTY = 2
GAP_INTERMEDIATE = 2
GAP_STACK = 1

#: Vertices per emitted block.  It bounds the arrays one block builds
#: (a block holds a few references per vertex and per edge of its
#: vertices) while keeping Python-level work per block, not per
#: reference.
BLOCK_VERTICES = 4096

#: References a decision loop lets pend before its block is recorded.
#: Kernels whose references depend on values they compute (CC, SSSP)
#: decide each block in plain Python ahead of laying it out; ending a
#: block here as well as at ``BLOCK_VERTICES`` keeps that loop from
#: running far past a reference budget.
BLOCK_REFS = 16_384

# (kind, is_load, gap) of each reference a block emitter puts, as the
# ``Tracer`` helpers charge them.
STACK_ACCESS = (DataType.INTERMEDIATE, True, GAP_STACK)
LOAD_OFFSET = (DataType.INTERMEDIATE, True, GAP_OFFSET)
LOAD_STRUCTURE = (DataType.STRUCTURE, True, GAP_STRUCTURE)
LOAD_PROPERTY = (DataType.PROPERTY, True, GAP_PROPERTY)
STORE_PROPERTY = (DataType.PROPERTY, False, GAP_PROPERTY)
LOAD_INTERMEDIATE = (DataType.INTERMEDIATE, True, GAP_INTERMEDIATE)
STORE_INTERMEDIATE = (DataType.INTERMEDIATE, False, GAP_INTERMEDIATE)


class WorkloadError(RuntimeError):
    """Raised for invalid workload/graph combinations."""


class Tracer:
    """Thin emission helper bound to a :class:`TraceBuffer` and layout.

    All ``load_*``/``store_*`` helpers return the trace index of the
    emitted reference so callers can thread dependency edges; the helpers
    raise :class:`TraceFull` when the reference budget is exhausted, which
    the driver catches to stop the (now pointless) algorithm early.
    """

    __slots__ = ("tb", "layout")

    def __init__(self, tb: TraceBuffer, layout: GraphLayout):
        self.tb = tb
        self.layout = layout

    def phase(self, label: str) -> None:
        """Mark a workload phase boundary (iteration, frontier level).

        Markers annotate the trace for telemetry; they emit no memory
        reference and never change simulation results.
        """
        self.tb.mark_phase(label)

    def load_offset(self, v: int, dep: int = NO_DEP) -> int:
        """Load ``offsets[v]`` (intermediate data)."""
        return self.tb.load(
            self.layout.offsets_addr(v), DataType.INTERMEDIATE, dep=dep, gap=GAP_OFFSET
        )

    def load_structure(self, edge_index: int, dep: int = NO_DEP) -> int:
        """Load the neighbor-ID entry at CSR position ``edge_index``."""
        return self.tb.load(
            self.layout.structure_addr(edge_index),
            DataType.STRUCTURE,
            dep=dep,
            gap=GAP_STRUCTURE,
        )

    def load_property(self, name: str, v: int, dep: int = NO_DEP) -> int:
        """Load ``prop[name][v]``; ``dep`` is the producing structure load."""
        return self.tb.load(
            self.layout.property_addr(name, v), DataType.PROPERTY, dep=dep, gap=GAP_PROPERTY
        )

    def store_property(self, name: str, v: int, dep: int = NO_DEP) -> int:
        """Store to ``prop[name][v]``."""
        return self.tb.store(
            self.layout.property_addr(name, v), DataType.PROPERTY, dep=dep, gap=GAP_PROPERTY
        )

    def stack_access(self, slot: int, is_load: bool = True) -> int:
        """Touch the hot stack region (loop frame / bookkeeping traffic).

        Real compiled kernels interleave stack and scalar reloads with
        the data-structure accesses; one such access per loop iteration
        keeps the intermediate data-type mix realistic (Fig. 7).
        """
        addr = self.layout.stack.addr(slot % self.layout.stack.num_elements)
        return self.tb.append(
            addr, DataType.INTERMEDIATE, is_load=is_load, gap=GAP_STACK
        )

    def load_intermediate(self, region, index: int, dep: int = NO_DEP) -> int:
        """Load element ``index`` of an intermediate region."""
        return self.tb.load(
            region.addr(index), DataType.INTERMEDIATE, dep=dep, gap=GAP_INTERMEDIATE
        )

    def store_intermediate(self, region, index: int, dep: int = NO_DEP) -> int:
        """Store element ``index`` of an intermediate region."""
        return self.tb.store(
            region.addr(index), DataType.INTERMEDIATE, dep=dep, gap=GAP_INTERMEDIATE
        )


class Block:
    """One block of references laid out by position, recorded at once.

    ``put`` fills the positions of one reference stream with the
    addresses of region elements, bounds-checked as ``Region.addr``
    checks them.  ``record`` extends the buffer with every reference
    before the first out-of-range one and then raises the ``IndexError``
    ``Region.addr`` raises for it, so a block fails where a loop of
    single appends would.
    """

    def __init__(self, tb: TraceBuffer, length: int):
        self.tb = tb
        #: Virtual trace index of the block's first reference.
        self.first = tb.next_index
        self.addr = np.empty(length, dtype=np.int64)
        self.kind = np.empty(length, dtype=np.int8)
        self.is_load = np.empty(length, dtype=bool)
        self.dep = np.full(length, NO_DEP, dtype=np.int64)
        self.gap = np.empty(length, dtype=np.int32)
        self._stop = length
        self._fault: tuple[Region, int] | None = None

    def put(
        self,
        pos: np.ndarray,
        region: Region,
        index: np.ndarray,
        ref: tuple[DataType, bool, int],
        dep: np.ndarray | None = None,
    ) -> None:
        """Fill increasing positions ``pos`` with ``region[index]`` refs.

        ``dep``, when given, holds the block positions of the loads the
        references depend on.
        """
        index = index.astype(np.int64, copy=False)
        outside = (index < 0) | (index >= region.num_elements)
        if outside.any():
            i = int(np.argmax(outside))
            if pos[i] < self._stop:
                self._stop, self._fault = int(pos[i]), (region, int(index[i]))
        kind, is_load, gap = ref
        self.addr[pos] = region.base + index * region.element_size
        self.kind[pos] = kind
        self.is_load[pos] = is_load
        self.gap[pos] = gap
        if dep is not None:
            self.dep[pos] = self.first + dep

    def record(self) -> None:
        """Extend the buffer; raises ``TraceFull``, or ``IndexError``."""
        stop = self._stop
        self.tb.extend(
            self.addr[:stop],
            self.kind[:stop],
            self.is_load[:stop],
            self.dep[:stop],
            self.gap[:stop],
        )
        if self._fault is not None:
            region, index = self._fault
            region.addr(index)


def adjacency(
    offsets: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR edges of ``vertices``, in visiting order.

    Returns each vertex's degree, and for each edge its owner (an index
    into ``vertices``) and its CSR position.
    """
    start = offsets[vertices]
    degree = offsets[vertices + 1] - start
    owner = np.repeat(np.arange(len(vertices)), degree)
    edges = np.arange(len(owner)) + (start - (np.cumsum(degree) - degree))[owner]
    return degree, owner, edges


def first_claims(targets: np.ndarray, eligible: np.ndarray) -> np.ndarray:
    """The first of the ``eligible`` edges to each distinct target.

    Returns edge indices in edge order: the edges that claim a target a
    traversal finds unvisited.
    """
    candidates = np.flatnonzero(eligible)
    first = np.unique(targets[candidates], return_index=True)[1]
    return np.sort(candidates[first])


class VisitBlock(Block):
    """A block over visits that each walk a run of CSR edges.

    Visit ``k`` emits ``head[k]`` references, then ``edge_refs[e]`` for
    each of its edges ``e`` in order, then ``tail[k]``.  The last head
    reference of a visit with edges is its ``offsets[u + 1]`` load, on
    which its first structure load depends.  Each edge starts with two
    references, which :meth:`put_edges` puts: the structure load and the
    dependent load of the neighbor's gathered property.  ``vertex_pos``,
    ``edge_pos`` and ``tail_pos`` are where each visit, edge and tail
    starts.
    """

    def __init__(
        self,
        tb: TraceBuffer,
        degree: np.ndarray,
        edge_refs: np.ndarray,
        tail: np.ndarray | int = 0,
        head: np.ndarray | int = 3,
    ):
        edge_bounds = np.concatenate(([0], np.cumsum(degree)))
        done = np.concatenate(([0], np.cumsum(edge_refs)))
        refs = head + done[edge_bounds[1:]] - done[edge_bounds[:-1]] + tail
        self.vertex_pos = np.cumsum(refs) - refs
        self.tail_pos = self.vertex_pos + refs - tail
        owner = np.repeat(np.arange(len(degree)), degree)
        self.edge_pos = done[:-1] + (self.vertex_pos + head - done[edge_bounds[:-1]])[owner]
        walks = degree > 0
        self._first_edge = edge_bounds[:-1][walks]
        self._offset_pos = (self.vertex_pos + head - 1)[walks]
        super().__init__(tb, int(refs.sum()))

    def put_edges(
        self,
        layout: GraphLayout,
        edges: np.ndarray,
        gathered: Region,
        targets: np.ndarray,
    ) -> None:
        """Put each edge's first two references.

        Edge ``e`` loads structure element ``edges[e]`` and then
        ``gathered[targets[e]]``, which depends on it.
        """
        edge = self.edge_pos
        self.put(edge, layout.structure, edges, LOAD_STRUCTURE)
        self.dep[edge[self._first_edge]] = self.first + self._offset_pos
        self.put(edge + 1, gathered, targets, LOAD_PROPERTY, dep=edge)

    def put_visits(
        self,
        layout: GraphLayout,
        slot: np.ndarray,
        worklist: Region,
        item: np.ndarray,
        vertices: np.ndarray,
        edges: np.ndarray,
        gathered: Region,
        targets: np.ndarray,
    ) -> None:
        """Put a worklist visit's three head references and its edges.

        Vertex ``k`` touches stack slot ``slot[k]``, loads worklist
        element ``item[k]`` and then ``offsets[vertices[k] + 1]``, which
        depends on it; its edges are put by :meth:`put_edges`.
        """
        vertex = self.vertex_pos
        stack = layout.stack
        self.put(vertex, stack, slot % stack.num_elements, STACK_ACCESS)
        self.put(vertex + 1, worklist, item, LOAD_INTERMEDIATE)
        self.put(vertex + 2, layout.offsets, vertices + 1, LOAD_OFFSET, dep=vertex + 1)
        self.put_edges(layout, edges, gathered, targets)


@dataclass
class TraceRun:
    """The product of tracing one workload over one dataset."""

    workload: str
    dataset: str
    trace: Trace
    layout: GraphLayout
    result: Any
    completed: bool

    @property
    def weighted(self) -> bool:
        """Whether the traced graph carried edge weights."""
        return self.layout.graph.is_weighted


class Workload(abc.ABC):
    """Base class for the five GAP algorithms (paper Table II)."""

    #: Short name used in reports (BC, BFS, PR, SSSP, CC).
    name: str = "?"
    #: Whether the algorithm needs edge weights (SSSP only).
    needs_weights: bool = False
    #: Property arrays the layout must allocate for this workload.
    property_names: tuple[str, ...] = ("prop",)
    #: The property array gathered through structure indices — the one
    #: DROPLET's MPP chases (its base address is what the specialized
    #: malloc writes into the PAG register).
    gathered_property: str = "prop"

    @property
    def gathered_properties(self) -> tuple[str, ...]:
        """All structure-indexed property arrays (multi-property chasing).

        Defaults to the single primary array; workloads that gather
        several arrays through the same neighbor IDs (e.g. BC) override
        this for the paper's §VI multi-property extension.
        """
        return (self.gathered_property,)

    def recommended_skip(self, graph: CSRGraph) -> int:
        """References to skip so recording starts in steady state.

        Mirrors the paper's region-of-interest methodology: the
        measurement window must not be dominated by a start-up phase.
        Traversal workloads default to a quarter of the edge count
        (capped); sweep workloads override this with phase-aware values.
        """
        return min(50_000, graph.num_edges // 4)

    def validate_graph(self, graph: CSRGraph) -> None:
        """Raise :class:`WorkloadError` if the graph is unusable."""
        if self.needs_weights and not graph.is_weighted:
            raise WorkloadError("%s requires a weighted graph" % self.name)
        if graph.num_vertices == 0:
            raise WorkloadError("%s requires a non-empty graph" % self.name)

    def make_layout(self, graph: CSRGraph) -> GraphLayout:
        """Allocate the graph plus this workload's property arrays."""
        return GraphLayout(graph, property_names=self.property_names)

    @abc.abstractmethod
    def reference(self, graph: CSRGraph, **kwargs) -> Any:
        """Fast, untraced implementation for correctness checks."""

    @abc.abstractmethod
    def trace_into(self, graph: CSRGraph, tracer: Tracer, **kwargs) -> Any:
        """Instrumented implementation emitting the annotated trace."""

    def run(
        self,
        graph: CSRGraph,
        max_refs: int | None = 200_000,
        skip_refs: int = 0,
        core: int = 0,
        **kwargs,
    ) -> TraceRun:
        """Trace this workload over ``graph`` with a reference budget.

        ``skip_refs`` leading references are executed but not recorded
        (region-of-interest warm-up, paper §III-A).  When the recording
        budget runs out the algorithm stops early (the paper likewise
        simulates a fixed instruction window); ``completed`` is False in
        that case and ``result`` is None.
        """
        self.validate_graph(graph)
        layout = self.make_layout(graph)
        tb = TraceBuffer(
            capacity=max_refs,
            name="%s/%s" % (self.name, graph.name),
            skip=skip_refs,
            core=core,
        )
        tracer = Tracer(tb, layout)
        completed = True
        result = None
        try:
            result = self.trace_into(graph, tracer, **kwargs)
        except TraceFull:
            completed = False
        return TraceRun(
            workload=self.name,
            dataset=graph.name,
            trace=tb.finalize(),
            layout=layout,
            result=result,
            completed=completed,
        )

    def supports_partitioning(self) -> bool:
        """Whether ``run_partitioned`` works for this workload.

        True for the all-active vertex-sweep kernels (they accept a
        ``vertex_range``); frontier-driven traversals are inherently
        single-trace here.
        """
        import inspect

        return "vertex_range" in inspect.signature(self.trace_into).parameters

    def run_partitioned(
        self,
        graph: CSRGraph,
        num_cores: int,
        max_refs: int | None = 100_000,
        skip_refs: int = 0,
        **kwargs,
    ) -> list[TraceRun]:
        """Trace a statically partitioned parallel run: one trace per core.

        Vertices are split into ``num_cores`` contiguous ranges over a
        *shared* :class:`GraphLayout` (same addresses — the cores contend
        for the same shared LLC lines, as in the paper's quad-core
        platform).  Feed the traces to :func:`repro.system.run_multicore`.
        """
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        if not self.supports_partitioning():
            raise WorkloadError(
                "%s is frontier-driven and does not partition by vertex range"
                % self.name
            )
        self.validate_graph(graph)
        layout = self.make_layout(graph)
        n = graph.num_vertices
        bounds = [round(i * n / num_cores) for i in range(num_cores + 1)]
        runs = []
        for core in range(num_cores):
            tb = TraceBuffer(
                capacity=max_refs,
                name="%s/%s#%d" % (self.name, graph.name, core),
                skip=skip_refs,
                core=core,
            )
            tracer = Tracer(tb, layout)
            completed = True
            result = None
            try:
                result = self.trace_into(
                    graph,
                    tracer,
                    vertex_range=(bounds[core], bounds[core + 1]),
                    **kwargs,
                )
            except TraceFull:
                completed = False
            runs.append(
                TraceRun(
                    workload=self.name,
                    dataset=graph.name,
                    trace=tb.finalize(),
                    layout=layout,
                    result=result,
                    completed=completed,
                )
            )
        return runs
