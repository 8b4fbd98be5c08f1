"""Fig. 3: effect of a 4x larger instruction window (ROB 128 → 512).

Per (workload, dataset): the increase in DRAM bandwidth utilization
(Fig. 3a) and the speedup (Fig. 3b).  The paper's Observation #1: both
are tiny (avg +2.7% bandwidth, +1.44% speedup) because load-load
dependency chains, not window size, bound MLP.
"""

from __future__ import annotations

from .common import ExperimentConfig, ExperimentResult, run_points

__all__ = ["fig03_points", "run_fig03"]


def fig03_points(cfg: ExperimentConfig, rob_sizes: tuple[int, int] = (128, 512)):
    """Every cell at each ROB size (no prefetching)."""
    return [
        cfg.point(w, d, rob_entries=rob) for w, d in cfg.cells() for rob in rob_sizes
    ]


def run_fig03(
    cfg: ExperimentConfig | None = None,
    rob_sizes: tuple[int, int] = (128, 512),
    results=None,
) -> ExperimentResult:
    """Regenerate the Fig. 3 ROB sweep."""
    cfg = cfg or ExperimentConfig()
    results = results or run_points(fig03_points(cfg, rob_sizes))
    out = ExperimentResult(
        experiment="fig03",
        title="4x instruction window: bandwidth-utilization delta and speedup",
    )
    speedups: list[float] = []
    bw_deltas: list[float] = []
    for workload, dataset in cfg.cells():
        base, big = (
            results[cfg.point(workload, dataset, rob_entries=rob)]
            for rob in rob_sizes
        )
        base_bw = base.dram_bandwidth_utilization()
        big_bw = big.dram_bandwidth_utilization()
        speedup = big.speedup_vs(base)
        bw_delta = big_bw - base_bw
        speedups.append(speedup)
        bw_deltas.append(bw_delta)
        out.rows.append(
            {
                "workload": workload,
                "dataset": dataset,
                "bw_util_%dROB" % rob_sizes[0]: round(base_bw, 4),
                "bw_util_%dROB" % rob_sizes[1]: round(big_bw, 4),
                "bw_delta_pp": round(100 * bw_delta, 2),
                "speedup": round(speedup, 4),
                "mlp_%dROB" % rob_sizes[0]: round(base.mlp, 2),
                "mlp_%dROB" % rob_sizes[1]: round(big.mlp, 2),
            }
        )
    avg_speedup = sum(speedups) / len(speedups) if speedups else float("nan")
    avg_bw = sum(bw_deltas) / len(bw_deltas) if bw_deltas else float("nan")
    out.notes.append(
        "paper: avg speedup +1.44%%, avg bandwidth +2.7pp — measured avg speedup "
        "%+.2f%%, avg bandwidth %+.2fpp"
        % (100 * (avg_speedup - 1.0), 100 * avg_bw)
    )
    return out
