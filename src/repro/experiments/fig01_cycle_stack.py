"""Fig. 1: cycle stack of PageRank on the orkut dataset.

The paper's motivating figure: ~45% of cycles are DRAM-bound stalls and
only ~15% keep the core busy.  We regenerate the stack for PR/orkut (and
optionally the full matrix) on the no-prefetch baseline.
"""

from __future__ import annotations

from .common import ExperimentConfig, ExperimentResult, run_points

__all__ = ["fig01_point", "run_fig01"]


def fig01_point(cfg: ExperimentConfig, workload: str = "PR", dataset: str = "orkut"):
    """The plotted cell, falling back to the config's first workload/dataset."""
    if dataset not in cfg.datasets:
        dataset = cfg.datasets[0]
    if workload not in cfg.workloads:
        workload = cfg.workloads[0]
    return cfg.point(workload, dataset)


def run_fig01(
    cfg: ExperimentConfig | None = None,
    workload: str = "PR",
    dataset: str = "orkut",
    results=None,
) -> ExperimentResult:
    """Regenerate the Fig. 1 cycle stack."""
    cfg = cfg or ExperimentConfig()
    point = fig01_point(cfg, workload, dataset)
    result = (results or run_points([point]))[point]
    fractions = result.cycle_stack.fractions()
    row = {"workload": point.workload, "dataset": point.dataset}
    row.update({k: round(v, 3) for k, v in fractions.items()})
    row["ipc"] = round(result.ipc, 3)
    out = ExperimentResult(
        experiment="fig01",
        title="Cycle stack of %s on %s (no-prefetch baseline)"
        % (point.workload, point.dataset),
        rows=[row],
    )
    out.notes.append(
        "paper: DRAM-bound ~45%%, core busy ~15%% — measured DRAM-bound %.0f%%, base %.0f%%"
        % (100 * fractions.get("DRAM", 0.0), 100 * fractions.get("base", 0.0))
    )
    return out
