"""Shared experiment infrastructure: configs, sweeps, table rendering.

Every figure module consumes an :class:`ExperimentConfig` naming the
(workload × dataset) matrix and trace budget, lists the
:class:`~repro.runtime.points.SweepPoint` s it plots, and folds their
simulated results into an :class:`ExperimentResult` — a titled list of
report rows that renders as an aligned text table (the same
rows/series the paper's figure plots).

:func:`run_points` simulates points in one
:class:`~repro.runtime.sweep.SweepRunner` run; nothing here memoizes
results between runs.  Figures that plot the same points share them by
running together (:func:`repro.experiments.run_figures`).  Traces come
from the runtime's on-disk trace cache, graphs from its process-wide
graph memo (:meth:`repro.runtime.points.TraceSpec.graph`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..graph.csr import CSRGraph
from ..graph.generators import PAPER_DATASET_NAMES
from ..workloads.base import TraceRun
from ..workloads.registry import PAPER_WORKLOAD_ORDER, get_workload

if TYPE_CHECKING:
    from ..runtime import SweepPoint, SweepRunner
    from ..system.machine import SimResult

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_points",
    "get_graph",
    "get_trace_run",
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

    def cells(self) -> list[tuple[str, str]]:
        """Every ``(workload, dataset)`` pair, workload-major."""
        return [(w, d) for w in self.workloads for d in self.datasets]

    def point(
        self, workload: str, dataset: str, setup: str = "none", **knobs
    ) -> SweepPoint:
        """One cell's sweep point at this config's trace budget.

        ``knobs`` are the point's machine-side fields (``llc_multiplier``,
        ``l2_config``, ``rob_entries``).
        """
        from ..runtime.points import SweepPoint

        return SweepPoint(
            workload,
            dataset,
            setup,
            max_refs=self.max_refs,
            scale_shift=self.scale_shift,
            **knobs,
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


def run_points(
    points, runner: SweepRunner | None = None
) -> dict[SweepPoint, SimResult]:
    """Simulate the distinct ``points`` in one sweep.

    ``runner`` defaults to a serial :class:`SweepRunner` on the default
    trace cache, and must keep full results (``return_full``, its
    default).  Any failed point raises
    :class:`~repro.runtime.sweep.SweepError`.  Returns every point's full
    :class:`SimResult`, keyed by point.
    """
    from ..runtime import SweepRunner

    report = (runner or SweepRunner()).run(list(dict.fromkeys(points)))
    report.raise_errors()
    return {p.point: p.result for p in report.points}


def get_graph(name: str, weighted: bool = False, scale_shift: int = 0) -> CSRGraph:
    """The dataset's read-only graph from the shared graph memo."""
    from ..runtime.points import TraceSpec

    # Any workload of the right weightedness names the dataset's graph.
    spec = TraceSpec("SSSP" if weighted else "PR", name, scale_shift=scale_shift)
    return spec.graph()


def get_trace_run(
    workload: str, dataset: str, max_refs: int, scale_shift: int = 0
) -> TraceRun:
    """One workload's trace window, after its recommended warm-up skip.

    Read through the on-disk trace cache (traced and stored on a miss),
    so traces persist across processes and runs; disable with
    ``REPRO_TRACE_CACHE=off`` (see :mod:`repro.runtime.trace_cache` for
    the key/invalidation rules).
    """
    from ..runtime import TraceCache, TraceSpec

    spec = TraceSpec(
        workload=get_workload(workload).name,
        dataset=dataset,
        max_refs=max_refs,
        scale_shift=scale_shift,
    )
    return TraceCache().get_or_trace(spec)[0]


def clear_caches() -> None:
    """Drop the process's memoized graphs (tests use this for
    isolation); on-disk trace-cache entries are kept."""
    from ..runtime.points import GRAPH_MEMO

    GRAPH_MEMO.clear()


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
