"""High-level simulation entry points.

``simulate`` runs one traced workload on one machine configuration;
``compare_setups`` runs the same trace across prefetcher configurations
(the Fig. 11 experiment shape) and returns results keyed by setup name.
Multi-point parameter sweeps belong to :mod:`repro.runtime`, whose
``SweepRunner`` fans points out across worker processes.
"""

from __future__ import annotations

from ..droplet.composite import PrefetchSetup, make_prefetch_setup
from ..workloads.base import TraceRun
from .config import SystemConfig
from .machine import Machine, SimResult

__all__ = ["simulate", "compare_setups"]


def _chased_properties(run: TraceRun, multi_property: bool):
    """Resolve which property arrays the MPP chases for ``run``."""
    from ..workloads.registry import get_workload

    workload = get_workload(run.workload)
    return (
        workload.gathered_properties if multi_property else workload.gathered_property
    )


def _simulate_resolved(
    run: TraceRun,
    config: SystemConfig,
    setup: PrefetchSetup,
    chased,
    telemetry=None,
    fast_path: str = "auto",
) -> SimResult:
    """Build a fresh :class:`Machine` and replay ``run`` (internal core)."""
    machine = Machine(
        config=config,
        layout=run.layout,
        setup=setup,
        chased_property=chased,
        telemetry=telemetry,
        fast_path=fast_path,
    )
    return machine.run(run.trace)


def simulate(
    run: TraceRun,
    config: SystemConfig | None = None,
    setup: PrefetchSetup | str = "none",
    multi_property: bool = False,
    telemetry=None,
    fast_path: str = "auto",
) -> SimResult:
    """Simulate one traced workload run.

    A fresh :class:`Machine` is built per call — caches, DRAM and
    prefetcher state never leak between runs.  ``multi_property`` lets
    the MPP chase *all* of the workload's structure-indexed property
    arrays (paper §VI extension) instead of the primary one.

    ``telemetry`` accepts a fresh :class:`repro.telemetry.Telemetry`
    session to instrument the run (the caller keeps the session and
    reads its timeline/events afterwards).  ``None`` leaves the run
    un-instrumented, with bit-identical results.

    ``fast_path`` is forwarded to :class:`Machine`, which owns the
    choice: ``"auto"`` (default) replays on the batch fast path,
    ``"off"`` on the scalar reference loop (the parity oracle).  Results
    are bit-identical; anything else raises :class:`ValueError`.
    """
    if isinstance(setup, str):
        setup = make_prefetch_setup(setup)
    return _simulate_resolved(
        run,
        config or SystemConfig.scaled_baseline(),
        setup,
        _chased_properties(run, multi_property),
        telemetry=telemetry,
        fast_path=fast_path,
    )


def compare_setups(
    run: TraceRun,
    setups: tuple[PrefetchSetup | str, ...] = (
        "none",
        "stream",
        "streamMPP1",
        "droplet",
    ),
    config: SystemConfig | None = None,
    multi_property: bool = False,
) -> dict[str, SimResult]:
    """Simulate ``run`` under several prefetcher setups, in process.

    ``setups`` entries are configuration names or ready-made
    :class:`PrefetchSetup` objects (mixing both is fine).  The base
    config and the chased-property resolution are computed once for the
    whole comparison, not per setup.  To fan setups out across
    processes, sweep :class:`~repro.runtime.points.SweepPoint` s with a
    :class:`repro.runtime.SweepRunner` instead.

    Returns ``{setup_name: SimResult}``; speedups are available via
    ``results[name].speedup_vs(results["none"])``.
    """
    config = config or SystemConfig.scaled_baseline()
    resolved = [
        s if isinstance(s, PrefetchSetup) else make_prefetch_setup(s)
        for s in setups
    ]
    chased = _chased_properties(run, multi_property)
    return {
        setup.name: _simulate_resolved(run, config, setup, chased)
        for setup in resolved
    }
