"""Fig. 7: memory-hierarchy usage breakdown by application data type.

Per (workload, dataset, data type): which level serviced the accesses.
The paper's Observation #6 in figure form — structure is serviced by L1
and DRAM (stream-once behaviour), property by L1, LLC and DRAM (reuse
distance between the L2 and LLC stack depths), intermediate mostly
on-chip.
"""

from __future__ import annotations

from ..characterization.hierarchy_usage import hierarchy_usage
from ..trace.record import DataType
from .common import ExperimentConfig, ExperimentResult, run_points

__all__ = ["baseline_points", "run_fig07"]


def baseline_points(cfg: ExperimentConfig):
    """Every cell on the no-prefetch baseline."""
    return [cfg.point(w, d) for w, d in cfg.cells()]


def run_fig07(cfg: ExperimentConfig | None = None, results=None) -> ExperimentResult:
    """Regenerate the Fig. 7 usage breakdown (no-prefetch baseline)."""
    cfg = cfg or ExperimentConfig()
    results = results or run_points(baseline_points(cfg))
    out = ExperimentResult(
        experiment="fig07",
        title="Memory hierarchy usage by data type (% of accesses per level)",
    )
    for workload, dataset in cfg.cells():
        usage = hierarchy_usage(results[cfg.point(workload, dataset)])
        for dt in DataType:
            row = {
                "workload": workload,
                "dataset": dataset,
                "type": dt.short_name,
            }
            for level, frac in usage[dt].fractions.items():
                row[level + "_%"] = round(100 * frac, 1)
            out.rows.append(row)
    out.notes.append(
        "paper: structure serviced by L1+DRAM, property by L1+LLC+DRAM (little "
        "L2), intermediate mostly on-chip"
    )
    return out
