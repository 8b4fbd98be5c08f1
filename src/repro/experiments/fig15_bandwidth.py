"""Fig. 15: extra bandwidth consumption (BPKI) of prefetching.

Bus accesses per kilo-instruction for stream / streamMPP1 / DROPLET
relative to the no-prefetch baseline.  The paper: DROPLET costs only
6.5-19.9% extra bandwidth thanks to its high prefetch accuracy.
"""

from __future__ import annotations

from .common import ExperimentConfig, ExperimentResult
from .prefetch_matrix import get_prefetch_matrix

__all__ = ["FIG15_SETUPS", "run_fig15"]

FIG15_SETUPS = ("none", "stream", "streamMPP1", "droplet")


def run_fig15(cfg: ExperimentConfig | None = None, results=None) -> ExperimentResult:
    """Regenerate the Fig. 15 bandwidth-overhead comparison."""
    cfg = cfg or ExperimentConfig()
    matrix = get_prefetch_matrix(cfg, FIG15_SETUPS, results=results)
    out = ExperimentResult(
        experiment="fig15", title="DRAM bus accesses per kilo-instruction (BPKI)"
    )
    for workload in cfg.workloads:
        for dataset in cfg.datasets:
            base = matrix[(workload, dataset, "none")].bpki()
            row = {"workload": workload, "dataset": dataset}
            for setup in FIG15_SETUPS:
                row[setup] = round(matrix[(workload, dataset, setup)].bpki(), 2)
            droplet = matrix[(workload, dataset, "droplet")].bpki()
            row["droplet_extra_%"] = round(
                100 * (droplet - base) / base if base else 0.0, 1
            )
            out.rows.append(row)
    out.notes.append(
        "paper: DROPLET's extra bandwidth is 6.5%/7%/11.3%/19.9%/15.1% for "
        "CC/PR/BC/BFS/SSSP — low because its prefetches are accurate"
    )
    return out
