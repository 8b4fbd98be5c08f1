"""Picklable sweep-point descriptions and structured outcomes.

A :class:`TraceSpec` names one traced workload run by *parameters* rather
than by materialized arrays, so it can cross process boundaries cheaply
and serve as a content-address for the on-disk trace cache.  A
:class:`SweepPoint` adds the machine side (prefetcher setup, optional
cache-geometry variant).  Workers return :class:`PointResult` objects:
either a simulation result/summary or a structured :class:`PointError` —
one failed point never kills the sweep.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from ..graph.csr import CSRGraph
from ..graph.generators import PAPER_DATASET_NAMES, dataset_seed, make_dataset
from ..workloads.base import TraceRun

__all__ = [
    "TraceSpec",
    "SweepPoint",
    "PointError",
    "PointResult",
    "GraphMemo",
    "GRAPH_MEMO",
]


class GraphMemo:
    """A fixed-capacity LRU of read-only graphs keyed by graph identity.

    Service workers are threads sharing one memo, so every access holds
    its lock, builds included: threads racing on a cold graph build it
    once.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        #: Graphs by identity in LRU order (first key least recently used).
        self._graphs: dict[tuple, CSRGraph] = {}
        self._reset_lock()

    def _reset_lock(self) -> None:
        self._lock = threading.Lock()

    def get(self, identity: tuple) -> CSRGraph | None:
        """The memoized graph (now the most recently used), or ``None``."""
        with self._lock:
            graphs = self._graphs
            graph = graphs.pop(identity, None)
            if graph is not None:
                graphs[identity] = graph
            return graph

    def get_or_build(self, identity: tuple, build) -> CSRGraph:
        """The memoized graph, else ``build()``'s, frozen and memoized.

        Memoizing evicts the least recently used graph past capacity.
        """
        with self._lock:
            graphs = self._graphs
            graph = graphs.pop(identity, None)
            if graph is None:
                graph = build().freeze()
            graphs[identity] = graph
            while len(graphs) > self.capacity:
                del graphs[next(iter(graphs))]
            return graph

    def clear(self) -> None:
        """Forget every memoized graph."""
        with self._lock:
            self._graphs.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._graphs)


#: The memo every trace, trace-cache load and experiment in the process
#: shares.  It holds one figure's graphs: the Table III datasets,
#: weighted and not.
GRAPH_MEMO = GraphMemo(capacity=2 * len(PAPER_DATASET_NAMES))

# A forked pool worker keeps the memoized graphs, but must not inherit a
# lock that another thread of its parent held mid-build.
os.register_at_fork(after_in_child=GRAPH_MEMO._reset_lock)


@dataclass(frozen=True)
class TraceSpec:
    """Parameters that fully determine one traced workload run.

    Tracing is deterministic given these fields: the graph generators are
    seeded (``seed=None`` selects the dataset's paper-default seed), the
    layout allocator is a deterministic bump allocator, and the warm-up
    skip is always the workload's ``recommended_skip``.  Two equal specs
    therefore produce bit-identical traces, which is what makes the
    on-disk cache and the parallel runner safe.
    """

    workload: str
    dataset: str
    max_refs: int = 200_000
    scale_shift: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload", self.workload.upper())

    @property
    def weighted(self) -> bool:
        """Whether the traced graph carries edge weights (workload-driven)."""
        from ..workloads.registry import get_workload

        return get_workload(self.workload).needs_weights

    def key_fields(self) -> dict:
        """The identity fields hashed into the cache key."""
        return {
            "workload": self.workload,
            "dataset": self.dataset,
            "max_refs": self.max_refs,
            "scale_shift": self.scale_shift,
            "seed": self.seed,
            "weighted": self.weighted,
        }

    @property
    def graph_identity(self) -> tuple:
        """``(dataset, scale_shift, weighted, seed)``: all the graph depends on.

        The seed is the *effective* one, so ``seed=None`` and the
        dataset's default seed name the same graph.
        """
        seed = self.seed
        if seed is None:
            try:
                seed = dataset_seed(self.dataset)
            except KeyError:
                pass  # unknown dataset: building its graph raises
        return (self.dataset, self.scale_shift, self.weighted, seed)

    def build_graph(self):
        """Deterministically build the spec's graph (no memo)."""
        return make_dataset(
            self.dataset,
            scale_shift=self.scale_shift,
            weighted=self.weighted,
            seed=self.seed,
        )

    def graph(self) -> CSRGraph:
        """The spec's read-only graph from :data:`GRAPH_MEMO`.

        :meth:`build_graph` runs only on a memo miss, so a process builds
        each graph once while it stays memoized.
        """
        return GRAPH_MEMO.get_or_build(self.graph_identity, self.build_graph)

    def trace(self, graph=None) -> TraceRun:
        """Trace the workload (no caching); ``graph`` defaults to :meth:`graph`."""
        from ..workloads.registry import get_workload

        workload = get_workload(self.workload)
        if graph is None:
            graph = self.graph()
        return workload.run(
            graph,
            max_refs=self.max_refs,
            skip_refs=workload.recommended_skip(graph),
        )


@dataclass(frozen=True)
class SweepPoint:
    """One simulation: a trace spec plus the machine-side knobs.

    ``llc_multiplier`` and ``l2_config`` express the Fig. 4 cache-geometry
    variants relative to the sweep's base config: ``llc_multiplier``
    scales the shared LLC with CACTI latencies, ``l2_config`` is a
    ``(size multiplier | None, associativity)`` pair where ``None``
    removes the private L2 entirely.  Which replay path runs is not a
    knob: :class:`~repro.system.machine.Machine` decides it, and both
    paths give bit-identical results (``tests/parity``).
    """

    workload: str
    dataset: str
    setup: str = "none"
    max_refs: int = 200_000
    scale_shift: int = 0
    seed: int | None = None
    multi_property: bool = False
    llc_multiplier: int | None = None
    l2_config: tuple[int | None, int] | None = None
    #: Instruction-window size override (Fig. 3 / `repro pareto`);
    #: ``None`` keeps the sweep's base config.
    rob_entries: int | None = None
    #: Memory-request-buffer capacity (§V-C1 / `repro pareto`).  It names
    #: the point (label and key) and configures nothing: replay queues no
    #: request, so the buffer would change no result.
    mrb_entries: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload", self.workload.upper())

    @property
    def trace_spec(self) -> TraceSpec:
        """The trace identity of this point (machine knobs stripped)."""
        return TraceSpec(
            workload=self.workload,
            dataset=self.dataset,
            max_refs=self.max_refs,
            scale_shift=self.scale_shift,
            seed=self.seed,
        )

    @property
    def key(self) -> tuple[str, str, str]:
        """The ``(workload, dataset, setup)`` triple experiments index by."""
        return (self.workload, self.dataset, self.setup)

    @property
    def label(self) -> str:
        """Human-readable point label for reports and error messages."""
        parts = ["%s/%s/%s" % (self.workload, self.dataset, self.setup)]
        if self.llc_multiplier is not None:
            parts.append("llc%dx" % self.llc_multiplier)
        if self.l2_config is not None:
            mult, assoc = self.l2_config
            parts.append("no-l2" if mult is None else "l2:%dx/%d" % (mult, assoc))
        if self.rob_entries is not None:
            parts.append("rob%d" % self.rob_entries)
        if self.mrb_entries is not None:
            parts.append("mrb%d" % self.mrb_entries)
        return "+".join(parts)


@dataclass(frozen=True)
class PointError:
    """Structured record of one failed point (picklable, JSON-friendly)."""

    kind: str
    message: str
    traceback: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException) -> "PointError":
        import traceback as tb

        return cls(
            kind=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                tb.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )

    def as_dict(self) -> dict:
        """JSON-safe form (traceback included for log archival)."""
        return {
            "kind": self.kind,
            "message": self.message,
            "traceback": self.traceback,
        }


@dataclass
class PointResult:
    """Outcome of one sweep point.

    Exactly one of ``summary``/``error`` is set.  ``result`` (the full
    :class:`~repro.system.machine.SimResult`) is carried only when the
    runner was built with ``return_full=True``; summaries are always
    present for successful points so sweeps stay cheap to ship across
    process boundaries.
    """

    point: SweepPoint
    summary: dict | None = None
    result: object | None = None
    error: PointError | None = None
    wall_time: float = 0.0
    trace_cache_hit: bool | None = None
    #: JSON-safe telemetry payload when the runner sampled this point.
    telemetry: dict | None = None
    #: Execution attempts this outcome took (1 = first try; >1 means the
    #: retry policy re-ran the point after transient failures).
    attempts: int = 1
    #: Whether this result was restored from a run ledger rather than
    #: executed in this sweep (``repro sweep --resume``).
    restored: bool = False
    #: Trace-cache entries quarantined as corrupt while executing this
    #: point (the cache regenerated them instead of crashing).
    cache_quarantined: int = 0

    @property
    def ok(self) -> bool:
        """Whether the point simulated successfully."""
        return self.error is None

    def as_dict(self) -> dict:
        """JSON-safe form used by ``reporting.summarize_sweep``.

        Always records the full trace identity — including ``max_refs``,
        ``scale_shift`` and the *effective* generator seed — so a saved
        sweep report alone suffices to regenerate its traces exactly.
        """
        from ..graph.generators import dataset_seed

        point = self.point
        seed = point.seed
        if seed is None:
            try:
                seed = dataset_seed(point.dataset)
            except KeyError:
                seed = None  # unknown dataset: leave unresolved
        out: dict = {
            "workload": point.workload,
            "dataset": point.dataset,
            "setup": point.setup,
            "label": point.label,
            "max_refs": point.max_refs,
            "scale_shift": point.scale_shift,
            "seed": seed,
            "ok": self.ok,
            "wall_time": self.wall_time,
            "trace_cache_hit": self.trace_cache_hit,
            "attempts": self.attempts,
            "restored": self.restored,
        }
        if self.summary is not None:
            out["summary"] = self.summary
        if self.error is not None:
            out["error"] = self.error.as_dict()
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        return out
