"""Sweep execution runtime: parallel runners, caching and resilience.

The experiment layer describes *what* to simulate; this package owns
*how* simulation points execute:

* :mod:`repro.runtime.points` — picklable descriptions of one traced
  workload (:class:`TraceSpec`) and one simulation (:class:`SweepPoint`),
  plus structured per-point outcomes (:class:`PointResult`).
* :mod:`repro.runtime.trace_cache` — a content-addressed on-disk cache of
  finalized traces, keyed by workload + generator parameters + seed +
  format versions, so traces are regenerated once across experiments,
  processes and runs.  Entries carry checksums; corrupt entries are
  quarantined and regenerated instead of crashing the run.
* :mod:`repro.runtime.sweep` — :class:`SweepRunner`, which fans points
  out over a :class:`~concurrent.futures.ProcessPoolExecutor` (or runs
  them serially) with deterministic result ordering, per-point error
  capture, watchdog timeouts, bounded retry (:class:`RetryPolicy`),
  worker-pool recovery and wall-time/cache/utilization metrics.  Its
  attempt loop (``run_attempts``) also runs the ``repro serve``
  daemon's points.  The execution seams live beside it:
  :mod:`repro.runtime.executor` (how one point runs, the watchdog,
  worker-process plumbing) and :mod:`repro.runtime.scheduler` (the
  supervised pool).
* :mod:`repro.runtime.status` — :func:`load_run_status` reconstructs a
  live or finished sweep's per-point state from its ledger + span
  sidecar, backing ``repro status``.
* :mod:`repro.runtime.ledger` — append-only :class:`RunLedger` journals
  that checkpoint completed points, enabling ``repro sweep --resume``,
  and the ``RunJournal`` that writes a run's records and tallies its
  :class:`SweepMetrics` for both ``repro sweep`` and ``repro serve``.
* :mod:`repro.runtime.faults` — deterministic :class:`FaultPlan` fault
  injection (crashes, hangs, transient errors, cache corruption) used by
  the resilience tests and the CI smoke job.
"""

from .executor import PointTimeout
from .faults import FaultError, FaultPlan, WorkerCrash
from .ledger import (
    LEDGER_FORMAT,
    LedgerError,
    RunLedger,
    SweepMetrics,
    default_ledger_root,
    new_run_id,
    point_key,
)
from .points import PointError, PointResult, SweepPoint, TraceSpec
from .status import (
    PointState,
    RunStatus,
    RunStatusBuilder,
    load_run_status,
    status_paths,
    status_table_rows,
    watch,
)
from .sweep import RetryPolicy, SweepError, SweepReport, SweepRunner
from .trace_cache import (
    CACHE_FORMAT_VERSION,
    TraceCache,
    default_cache_root,
    trace_key,
)

__all__ = [
    "PointError",
    "PointResult",
    "SweepPoint",
    "TraceSpec",
    "SweepError",
    "SweepMetrics",
    "SweepReport",
    "SweepRunner",
    "RetryPolicy",
    "PointTimeout",
    "FaultError",
    "FaultPlan",
    "WorkerCrash",
    "RunLedger",
    "LedgerError",
    "LEDGER_FORMAT",
    "point_key",
    "new_run_id",
    "default_ledger_root",
    "CACHE_FORMAT_VERSION",
    "TraceCache",
    "default_cache_root",
    "trace_key",
    "PointState",
    "RunStatus",
    "RunStatusBuilder",
    "load_run_status",
    "status_paths",
    "status_table_rows",
    "watch",
]
