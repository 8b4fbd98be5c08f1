"""The shared (workload × dataset × prefetcher) simulation matrix.

Figures 11–15 all read from the same set of simulations: every workload
on every dataset under every prefetcher configuration.  This module
names those points and reads a sweep's results back as the matrix, so
each figure module only formats its own view of it; run together
(:func:`repro.experiments.run_figures`), the figures simulate each
matrix point once.
"""

from __future__ import annotations

from ..droplet.composite import PREFETCH_CONFIG_NAMES
from ..system.machine import SimResult
from .common import ExperimentConfig, run_points

__all__ = ["get_prefetch_matrix", "matrix_points", "MATRIX_SETUPS"]

#: All prefetcher configurations of Fig. 11, in plot order.
MATRIX_SETUPS = PREFETCH_CONFIG_NAMES


def matrix_points(
    cfg: ExperimentConfig, setups: tuple[str, ...] = MATRIX_SETUPS
):
    """The matrix as :class:`~repro.runtime.points.SweepPoint` objects."""
    return [cfg.point(w, d, s) for w, d in cfg.cells() for s in setups]


def get_prefetch_matrix(
    cfg: ExperimentConfig,
    setups: tuple[str, ...] = MATRIX_SETUPS,
    runner=None,
    results=None,
) -> dict[tuple[str, str, str], SimResult]:
    """The comparison matrix as ``{(workload, dataset, setup): SimResult}``.

    Read out of ``results`` (a :func:`~.common.run_points` mapping that
    holds the matrix points), or simulated in one sweep over ``runner``
    (serial by default; a parallel runner's results are bit-identical).
    """
    points = matrix_points(cfg, setups)
    results = results or run_points(points, runner)
    return {p.key: results[p] for p in points}
