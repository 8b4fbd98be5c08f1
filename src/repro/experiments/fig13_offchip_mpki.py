"""Fig. 13: off-chip demand accesses (LLC demand MPKI) by data type.

The additive story of DROPLET's two components: the stream prefetcher
cuts structure MPKI, the MPP cuts property MPKI, and the data-aware
streamer cuts both further by dedicating every tracker to structure.
"""

from __future__ import annotations

from ..trace.record import DataType
from .common import ExperimentConfig, ExperimentResult
from .prefetch_matrix import get_prefetch_matrix

__all__ = ["FIG13_SETUPS", "run_fig13"]

FIG13_SETUPS = ("none", "stream", "streamMPP1", "droplet")


def run_fig13(cfg: ExperimentConfig | None = None, results=None) -> ExperimentResult:
    """Regenerate the Fig. 13 demand-MPKI breakdown."""
    cfg = cfg or ExperimentConfig()
    matrix = get_prefetch_matrix(cfg, FIG13_SETUPS, results=results)
    out = ExperimentResult(
        experiment="fig13", title="LLC demand MPKI by data type and configuration"
    )
    for workload in cfg.workloads:
        for dataset in cfg.datasets:
            row = {"workload": workload, "dataset": dataset}
            for setup in FIG13_SETUPS:
                result = matrix[(workload, dataset, setup)]
                row[setup + "_struct"] = round(
                    result.llc_mpki(DataType.STRUCTURE), 2
                )
                row[setup + "_prop"] = round(result.llc_mpki(DataType.PROPERTY), 2)
            out.rows.append(row)
    out.notes.append(
        "paper: stream cuts structure MPKI (21-71%); streamMPP1 additionally "
        "cuts property MPKI (25-93%); DROPLET cuts structure a further 6-77% "
        "and property follows"
    )
    return out
