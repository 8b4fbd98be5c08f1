"""Experiment harness: one module per paper figure/table.

Each ``run_*`` function returns an :class:`ExperimentResult` whose rows
are the same series the paper's figure plots; ``to_text()`` renders the
report table.  A figure's ``run_*`` simulates the sweep points it plots
in one sweep (Figs. 4 and 11 take a ``runner``, a
:class:`~repro.runtime.sweep.SweepRunner`, to fan it out) and folds
their full results.  Given ``results``, a :func:`run_points` mapping
that already holds those points, it only folds: :func:`run_figures`
regenerates several figures from one sweep, over any runner, that way.
See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for the
recorded paper-vs-measured comparison.
"""

from .common import (
    ExperimentConfig,
    ExperimentResult,
    clear_caches,
    geomean,
    get_graph,
    get_trace_run,
    render_table,
    run_points,
)
from .fig01_cycle_stack import fig01_point, run_fig01
from .fig03_rob_sweep import fig03_points, run_fig03
from .fig04_cache_sensitivity import (
    l2_points,
    llc_points,
    run_fig04a,
    run_fig04b,
    run_fig04c,
)
from .fig05_dep_chains import run_fig05
from .fig07_hierarchy_usage import baseline_points, run_fig07
from .fig11_prefetcher_comparison import run_fig11a, run_fig11b
from .fig12_l2_performance import FIG12_SETUPS, run_fig12
from .fig13_offchip_mpki import FIG13_SETUPS, run_fig13
from .fig14_prefetch_accuracy import FIG14_SETUPS, run_fig14
from .fig15_bandwidth import FIG15_SETUPS, run_fig15
from .prefetch_matrix import MATRIX_SETUPS, get_prefetch_matrix, matrix_points
from .tables import (
    run_overheads,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)

#: Every figure by its ``repro figure`` name, as ``(points, run)``:
#: ``points(cfg)`` lists the sweep points ``run(cfg, results=...)`` folds
#: at the figure's default parameters.
FIGURES = {
    "fig01": (lambda cfg: [fig01_point(cfg)], run_fig01),
    "fig03": (fig03_points, run_fig03),
    "fig04a": (llc_points, run_fig04a),
    "fig04b": (l2_points, run_fig04b),
    "fig04c": (llc_points, run_fig04c),
    "fig05": (lambda cfg: [], run_fig05),
    "fig07": (baseline_points, run_fig07),
    "fig11a": (matrix_points, run_fig11a),
    "fig11b": (matrix_points, run_fig11b),
    "fig12": (lambda cfg: matrix_points(cfg, FIG12_SETUPS), run_fig12),
    "fig13": (lambda cfg: matrix_points(cfg, FIG13_SETUPS), run_fig13),
    "fig14": (lambda cfg: matrix_points(cfg, FIG14_SETUPS), run_fig14),
    "fig15": (lambda cfg: matrix_points(cfg, FIG15_SETUPS), run_fig15),
}


def figure_points(names, cfg: ExperimentConfig) -> list:
    """The named figures' sweep points at default parameters."""
    return [p for name in names for p in FIGURES[name][0](cfg)]


def run_figures(names, cfg=None, runner=None) -> dict[str, ExperimentResult]:
    """Regenerate the named figures, at default parameters, from one sweep.

    The union of the figures' points runs in a single ``runner.run``,
    each distinct point once: serially by default, over one process
    pool for a runner with ``workers >= 2``.  Returns
    ``{name: ExperimentResult}`` in ``names`` order.
    """
    cfg = cfg or ExperimentConfig()
    results = run_points(figure_points(names, cfg), runner)
    return {name: FIGURES[name][1](cfg, results=results) for name in names}


__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "FIGURES",
    "clear_caches",
    "figure_points",
    "geomean",
    "get_graph",
    "get_trace_run",
    "render_table",
    "run_figures",
    "run_points",
    "run_fig01",
    "run_fig03",
    "run_fig04a",
    "run_fig04b",
    "run_fig04c",
    "run_fig05",
    "run_fig07",
    "run_fig11a",
    "run_fig11b",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig15",
    "MATRIX_SETUPS",
    "get_prefetch_matrix",
    "run_overheads",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
]
