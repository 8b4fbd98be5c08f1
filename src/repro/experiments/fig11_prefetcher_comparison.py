"""Fig. 11: performance of the six prefetcher configurations.

Fig. 11a: per-(workload, dataset) speedup of every configuration over
the no-prefetch baseline.  Fig. 11b: the per-workload geomean across
datasets — the table the paper's headline claims (DROPLET best for CC,
PR, BC, SSSP; streamMPP1 best for BFS and the road dataset) come from.
"""

from __future__ import annotations

from .common import ExperimentConfig, ExperimentResult, geomean
from .prefetch_matrix import MATRIX_SETUPS, get_prefetch_matrix

__all__ = ["run_fig11a", "run_fig11b"]


def run_fig11a(
    cfg: ExperimentConfig | None = None,
    setups: tuple[str, ...] = MATRIX_SETUPS,
    runner=None,
    results=None,
) -> ExperimentResult:
    """Fig. 11a: speedup per (workload, dataset) for each configuration."""
    cfg = cfg or ExperimentConfig()
    matrix = get_prefetch_matrix(cfg, setups, runner, results)
    out = ExperimentResult(
        experiment="fig11a", title="Speedup over no-prefetch baseline"
    )
    for workload, dataset in cfg.cells():
        base = matrix[(workload, dataset, "none")]
        row = {"workload": workload, "dataset": dataset}
        for setup in setups:
            if setup == "none":
                continue
            row[setup] = round(matrix[(workload, dataset, setup)].speedup_vs(base), 3)
        out.rows.append(row)
    return out


def run_fig11b(
    cfg: ExperimentConfig | None = None,
    setups: tuple[str, ...] = MATRIX_SETUPS,
    runner=None,
    results=None,
) -> ExperimentResult:
    """Fig. 11b: per-workload geomean speedups across datasets."""
    cfg = cfg or ExperimentConfig()
    matrix = get_prefetch_matrix(cfg, setups, runner, results)
    out = ExperimentResult(
        experiment="fig11b", title="Geomean speedup per workload (Fig. 11b)"
    )
    for workload in cfg.workloads:
        row = {"workload": workload}
        for setup in setups:
            if setup == "none":
                continue
            speedups = [
                matrix[(workload, dataset, setup)].speedup_vs(
                    matrix[(workload, dataset, "none")]
                )
                for dataset in cfg.datasets
            ]
            row[setup] = round(geomean(speedups), 3)
        out.rows.append(row)
    out.notes.append(
        "paper: DROPLET best for CC (+102%), PR (+30%), BC (+19%), SSSP "
        "(+32%); streamMPP1 best for BFS (+36%) and for the road dataset"
    )
    return out
