"""Shared experiment infrastructure: configs, caching, table rendering.

Every figure module consumes an :class:`ExperimentConfig` naming the
(workload × dataset) matrix and trace budget, and produces an
:class:`ExperimentResult` — a titled list of report rows that renders as
an aligned text table (the same rows/series the paper's figure plots).

Graphs, traces and simulation results are cached per-process so that the
benchmark suite does not regenerate the same trace for every figure.
Graphs come from the runtime's process-wide graph memo
(:meth:`repro.runtime.points.TraceSpec.graph`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..graph.csr import CSRGraph
from ..graph.generators import PAPER_DATASET_NAMES
from ..workloads.base import TraceRun
from ..workloads.registry import PAPER_WORKLOAD_ORDER, get_workload

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "get_graph",
    "get_trace_run",
    "make_runner",
    "geomean",
    "render_table",
    "clear_caches",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Scope and budget of one experiment run."""

    workloads: tuple[str, ...] = PAPER_WORKLOAD_ORDER
    datasets: tuple[str, ...] = PAPER_DATASET_NAMES
    max_refs: int = 200_000
    scale_shift: int = 0

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A reduced matrix for fast test runs."""
        return cls(
            workloads=("PR", "BFS"),
            datasets=("kron", "road"),
            max_refs=40_000,
            scale_shift=-3,
        )


@dataclass
class ExperimentResult:
    """Titled tabular result of one experiment."""

    experiment: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        """Render as an aligned text table with title and notes."""
        lines = ["== %s: %s ==" % (self.experiment, self.title)]
        lines.append(render_table(self.rows))
        for note in self.notes:
            lines.append("note: %s" % note)
        return "\n".join(lines)

    def column(self, name: str) -> list:
        """Extract one column across rows."""
        return [row.get(name) for row in self.rows]


# ----------------------------------------------------------------------
# Caches
# ----------------------------------------------------------------------
# In-process memoization sits in front of the shared on-disk trace cache
# (repro.runtime.trace_cache): first use in a process pays one disk load
# (or one trace generation, stored for every later experiment and run).
_TRACE_CACHE: dict[tuple, TraceRun] = {}
_DISK_CACHE = None


def _disk_cache():
    """The process-wide on-disk trace cache (lazily constructed)."""
    global _DISK_CACHE
    if _DISK_CACHE is None:
        from ..runtime.trace_cache import TraceCache

        _DISK_CACHE = TraceCache()
    return _DISK_CACHE


def get_graph(name: str, weighted: bool = False, scale_shift: int = 0) -> CSRGraph:
    """The dataset's read-only graph from the shared graph memo."""
    from ..runtime.points import TraceSpec

    # Any workload of the right weightedness names the dataset's graph.
    spec = TraceSpec("SSSP" if weighted else "PR", name, scale_shift=scale_shift)
    return spec.graph()


def get_trace_run(
    workload: str, dataset: str, max_refs: int, scale_shift: int = 0
) -> TraceRun:
    """Cached workload tracing with the workload's recommended warm-up skip.

    Backed by the on-disk trace cache, so traces persist across processes
    and runs; disable with ``REPRO_TRACE_CACHE=off`` (see
    :mod:`repro.runtime.trace_cache` for the key/invalidation rules).
    """
    from ..runtime.points import TraceSpec

    key = (workload, dataset, max_refs, scale_shift)
    if key not in _TRACE_CACHE:
        spec = TraceSpec(
            workload=get_workload(workload).name,
            dataset=dataset,
            max_refs=max_refs,
            scale_shift=scale_shift,
        )
        _TRACE_CACHE[key] = _disk_cache().get_or_trace(spec)[0]
    return _TRACE_CACHE[key]


def make_runner(
    workers: int,
    timeout: float | None = None,
    retries: int | None = None,
):
    """A :class:`~repro.runtime.sweep.SweepRunner` for figure drivers.

    Figures re-simulate the same points across driver invocations, so
    the runner keeps the default shared on-disk trace cache and full
    results.  ``timeout``/``retries`` tune the resilience policy; the
    defaults retry transient failures (worker deaths, injected faults,
    timeouts) and fail deterministic errors fast.
    """
    from ..runtime import RetryPolicy, SweepRunner

    retry = RetryPolicy(
        max_attempts=max(1, (retries if retries is not None else 2) + 1),
        timeout=timeout,
    )
    return SweepRunner(workers=workers, retry=retry)


def clear_caches() -> None:
    """Drop in-process cached graphs and traces (tests use this for
    isolation); on-disk trace-cache entries are kept."""
    from ..runtime.points import GRAPH_MEMO

    GRAPH_MEMO.clear()
    _TRACE_CACHE.clear()


# ----------------------------------------------------------------------
# Reporting helpers
# ----------------------------------------------------------------------
def geomean(values) -> float:
    """Geometric mean (the paper's Fig. 11b aggregation)."""
    values = [v for v in values if v is not None]
    if not values:
        return float("nan")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def render_table(rows: list[dict]) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def fmt(value) -> str:
        """Cell renderer: floats at 3 decimals, None blank."""
        if isinstance(value, float):
            return "%.3f" % value
        return "" if value is None else str(value)

    widths = {
        c: max(len(c), *(len(fmt(row.get(c))) for row in rows)) for c in columns
    }
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    sep = "  ".join("-" * widths[c] for c in columns)
    body = [
        "  ".join(fmt(row.get(c)).ljust(widths[c]) for c in columns) for row in rows
    ]
    return "\n".join([header, sep] + body)
