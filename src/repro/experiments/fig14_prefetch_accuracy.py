"""Fig. 14: prefetch accuracy per data type and configuration.

Accuracy = useful prefetches / issued prefetches, reported separately
for structure and property lines.  The paper: DROPLET's structure
accuracy is the highest everywhere (100% CC, 95% PR, 53% BC, 66% BFS,
64% SSSP); its property accuracy leads except on BFS, where the
conventional streamer happens to catch property streams.
"""

from __future__ import annotations

from ..trace.record import DataType
from .common import ExperimentConfig, ExperimentResult
from .prefetch_matrix import get_prefetch_matrix

__all__ = ["FIG14_SETUPS", "run_fig14"]

FIG14_SETUPS = ("stream", "streamMPP1", "droplet")


def run_fig14(cfg: ExperimentConfig | None = None, results=None) -> ExperimentResult:
    """Regenerate the Fig. 14 prefetch-accuracy comparison."""
    cfg = cfg or ExperimentConfig()
    matrix = get_prefetch_matrix(cfg, FIG14_SETUPS, results=results)
    out = ExperimentResult(
        experiment="fig14", title="Prefetch accuracy (%) by data type"
    )
    for workload in cfg.workloads:
        for dataset in cfg.datasets:
            row = {"workload": workload, "dataset": dataset}
            for setup in FIG14_SETUPS:
                result = matrix[(workload, dataset, setup)]
                row[setup + "_struct"] = round(
                    100 * result.prefetch_accuracy(DataType.STRUCTURE), 1
                )
                row[setup + "_prop"] = round(
                    100 * result.prefetch_accuracy(DataType.PROPERTY), 1
                )
            out.rows.append(row)
    out.notes.append(
        "paper: DROPLET structure accuracy 100/95/53/66/64% and property "
        "accuracy 94/95/46/-/70% for CC/PR/BC/BFS/SSSP; sequential-order "
        "algorithms (CC, PR) are the most accurate"
    )
    return out
