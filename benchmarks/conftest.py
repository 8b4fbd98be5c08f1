"""Benchmark configuration.

The benchmark suite regenerates every table and figure of the paper at
full reproduction scale.  Set ``REPRO_BENCH_QUICK=1`` to run the reduced
matrix instead (useful for smoke-testing the harness), and
``REPRO_BENCH_WORKERS=N`` to fan the figures' sweep out over ``N``
worker processes (results are bit-identical to serial runs).

Every figure's points simulate in one sweep per session, the first time
a figure benchmark asks for them (:func:`figure_results`); each figure
benchmark then times only its fold of that sweep's results.  Traces
come from the shared on-disk cache (``REPRO_TRACE_CACHE``), so a second
benchmark run skips trace generation entirely.

Results print as text tables; compare them against the paper-vs-measured
record in EXPERIMENTS.md.
"""

import os

import pytest

from repro.experiments import FIGURES, ExperimentConfig, figure_points, run_points
from repro.runtime import SweepRunner


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Full paper matrix unless REPRO_BENCH_QUICK is set."""
    if os.environ.get("REPRO_BENCH_QUICK"):
        return ExperimentConfig.quick()
    return ExperimentConfig()


@pytest.fixture(scope="session")
def sweep_runner() -> SweepRunner | None:
    """Parallel sweep runner when REPRO_BENCH_WORKERS asks for one.

    ``None`` keeps the serial in-process path (the default).
    """
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0") or 0)
    if workers < 2:
        return None
    return SweepRunner(workers=workers)


@pytest.fixture(scope="session")
def figure_results(bench_config, sweep_runner):
    """Every figure's points, simulated once per session in one sweep.

    Points that several figures plot (the Figs. 11–15 matrix, the Fig. 4
    LLC sweep, the no-prefetch baseline) simulate once for all of them.
    """
    return run_points(figure_points(FIGURES, bench_config), sweep_runner)


@pytest.fixture
def show(capsys):
    """Print an ExperimentResult table to the live terminal."""

    def _show(result):
        with capsys.disabled():
            print("\n" + result.to_text())
        return result

    return _show


@pytest.fixture(scope="session")
def full_scale(bench_config) -> bool:
    """Whether the paper-regime shape assertions apply.

    The quick matrix uses graphs far smaller than the scaled caches, which
    is outside the regime the paper's observations are stated in.
    """
    return bench_config.scale_shift >= 0
