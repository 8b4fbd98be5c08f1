"""Fig. 12: L2 cache hit rate under stream / streamMPP1 / DROPLET.

The paper's demonstration that DROPLET turns the badly underutilized
private L2 (Fig. 4b: ~10% hit rate) into a useful resource — average L2
hit rates of 62% (CC), 76% (PR), 14% (BC), 38% (BFS), 50% (SSSP).
"""

from __future__ import annotations

from .common import ExperimentConfig, ExperimentResult
from .prefetch_matrix import get_prefetch_matrix

__all__ = ["FIG12_SETUPS", "run_fig12"]

FIG12_SETUPS = ("none", "stream", "streamMPP1", "droplet")


def run_fig12(cfg: ExperimentConfig | None = None, results=None) -> ExperimentResult:
    """Regenerate the Fig. 12 L2 hit-rate comparison."""
    cfg = cfg or ExperimentConfig()
    matrix = get_prefetch_matrix(cfg, FIG12_SETUPS, results=results)
    out = ExperimentResult(
        experiment="fig12", title="L2 demand hit rate by prefetch configuration"
    )
    for workload in cfg.workloads:
        for dataset in cfg.datasets:
            row = {"workload": workload, "dataset": dataset}
            for setup in FIG12_SETUPS:
                row[setup] = round(
                    matrix[(workload, dataset, setup)].l2_hit_rate(), 3
                )
            out.rows.append(row)
        mean_row = {"workload": workload, "dataset": "MEAN"}
        for setup in FIG12_SETUPS:
            values = [
                matrix[(workload, d, setup)].l2_hit_rate() for d in cfg.datasets
            ]
            mean_row[setup] = round(sum(values) / len(values), 3)
        out.rows.append(mean_row)
    out.notes.append(
        "paper: DROPLET raises L2 hit rate to 62%/76%/14%/38%/50% for "
        "CC/PR/BC/BFS/SSSP; the conventional streamer leads on road/BFS"
    )
    return out
