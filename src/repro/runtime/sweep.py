"""Parallel sweep execution with deterministic ordering, metrics and
failure recovery.

:class:`SweepRunner` executes a list of :class:`~repro.runtime.points.SweepPoint`
descriptions either serially in-process or fanned out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Guarantees:

* **Determinism** — results come back in submission order and are
  bit-identical to the serial path (traces are regenerated or
  cache-loaded identically in every worker; ``Machine`` state never
  crosses points).
* **Error isolation** — a failing point yields a structured
  :class:`~repro.runtime.points.PointError` inside its
  :class:`~repro.runtime.points.PointResult`; the rest of the sweep
  completes.
* **Resilience** — a :class:`RetryPolicy` gives every point a watchdog
  timeout and bounded retries with exponential backoff, applied by
  :func:`run_attempts`, the one attempt loop (``repro serve`` settles
  its points there too).  Deterministic failures (bad arguments,
  simulation bugs) fail fast; transient ones (injected faults, worker
  deaths, timeouts, OOM kills) retry.  A broken process pool is
  respawned — repeatedly-broken pools degrade to fewer workers and
  ultimately to in-process serial execution — and completed results
  are never lost.  With a :class:`~repro.runtime.ledger.RunLedger`
  attached, the run, each settled point and the final metrics journal
  to disk as they happen (through the
  :class:`~repro.runtime.ledger.RunJournal` the service also uses), so
  a killed sweep resumes from where it died and ``repro status`` reads
  the ledger alone.
* **Metrics** — per-point wall time, trace-cache hit/miss counts, trace
  generation counts, aggregate worker utilization, and the resilience
  counters (retries, timeouts, pool recoveries, quarantined cache
  entries, ledger-restored points), carried on the returned
  :class:`SweepReport`.
* **Observability** — with a :mod:`~repro.telemetry.spans` recorder
  active (passed as ``tracer=`` or installed via
  :func:`repro.telemetry.spans.set_current`), the sweep journals a
  structured timeline: per-point spans and retry/timeout/respawn
  instants — the substrate behind the Chrome-trace export and the live
  state of unsettled points in ``repro status``.  The run's record and
  its metrics live in the ledger alone.

The execution machinery itself lives in the sibling modules:
:mod:`~repro.runtime.executor` (how one point runs, worker plumbing)
and :mod:`~repro.runtime.scheduler` (the supervised pool).  On a cold
cache the runner first warms the trace cache over the sweep's *unique*
trace specs (in parallel), so the simulation phase never traces the
same workload twice across workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from ..telemetry import spans as _spans
from .executor import POINT_TIMEOUT_KIND, WORKER_CRASH_KIND, execute_point
from .ledger import RunJournal, SweepMetrics
from .points import PointError, PointResult
from .trace_cache import TraceCache

__all__ = [
    "SweepRunner",
    "SweepReport",
    "SweepMetrics",
    "SweepError",
    "RetryPolicy",
    "run_attempts",
]


class SweepError(RuntimeError):
    """Raised by :meth:`SweepReport.raise_errors` when any point failed."""


@dataclass(frozen=True)
class RetryPolicy:
    """Per-point timeout, retry and pool-recovery knobs of one sweep.

    ``max_attempts`` bounds *total* executions of one point (1 disables
    retry).  Only transient failures retry: an error whose ``kind`` (the
    exception type name) is listed in ``transient_kinds`` — injected
    faults, worker deaths, watchdog timeouts, OOM-ish conditions.
    Anything else (a ``ValueError`` from a bad setup, a simulation bug)
    is deterministic: retrying cannot help, so the point fails fast with
    its structured error and the sweep moves on.

    ``timeout`` arms the watchdog, which raises ``PointTimeout`` in the
    point's own thread at ``timeout`` seconds: on the main thread of a
    serial sweep, in a pool worker and on a ``repro serve`` worker
    thread alike.  It cannot interrupt a blocking system call or a long
    C routine, so in parallel mode a supervisor-side hard deadline at
    ``2 × timeout + 5`` kills and respawns the pool if a worker is
    wedged there.
    """

    max_attempts: int = 3
    timeout: float | None = None
    backoff: float = 0.25
    backoff_factor: float = 2.0
    max_backoff: float = 30.0
    transient_kinds: tuple[str, ...] = (
        "FaultError",
        WORKER_CRASH_KIND,
        POINT_TIMEOUT_KIND,
        "MemoryError",
        "OSError",
        "ConnectionResetError",
        "BrokenProcessPool",
    )
    #: Pool-breakage budget: respawn at full size once, then halve the
    #: worker count per respawn; past the budget the sweep finishes
    #: serially in-process.
    max_pool_respawns: int = 3

    def is_transient(self, error: PointError | None) -> bool:
        """Whether ``error`` is worth retrying."""
        return error is not None and error.kind in self.transient_kinds

    def should_retry(self, result: PointResult, attempt: int, on_failure) -> bool:
        """The one retry decision: whether ``result``'s point runs again.

        Every failed attempt goes to ``on_failure(result, attempt,
        retrying)``, which counts it and journals its ``point.timeout``
        and ``point.retry`` instants.
        """
        if result.ok:
            return False
        retrying = attempt < self.max_attempts and self.is_transient(result.error)
        on_failure(result, attempt, retrying)
        return retrying

    def delay(self, failed_attempts: int) -> float:
        """Backoff before the next attempt, after ``failed_attempts``."""
        if self.backoff <= 0:
            return 0.0
        exponent = max(0, failed_attempts - 1)
        return min(self.backoff * self.backoff_factor**exponent, self.max_backoff)

    @property
    def hard_timeout(self) -> float | None:
        """Supervisor-side kill deadline backing the soft watchdog."""
        return None if self.timeout is None else self.timeout * 2.0 + 5.0


@dataclass
class SweepReport:
    """Ordered point results plus sweep-level metrics."""

    points: list[PointResult] = field(default_factory=list)
    metrics: SweepMetrics = field(default_factory=SweepMetrics)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def ok(self) -> bool:
        """Whether every point simulated successfully."""
        return all(p.ok for p in self.points)

    def errors(self) -> list[PointResult]:
        """The failed points, in sweep order."""
        return [p for p in self.points if not p.ok]

    def exit_code(self) -> int:
        """Process exit status for this sweep's outcome.

        0 — every point succeeded; 1 — partial failure (some points
        survived); 2 — total failure (every point failed).
        """
        failed = self.errors()
        if not failed:
            return 0
        return 2 if len(failed) == len(self.points) else 1

    def failure_summary(self) -> str:
        """Multi-line summary of the failed points ('' when none)."""
        failed = self.errors()
        if not failed:
            return ""
        lines = [
            "%d/%d sweep points failed:" % (len(failed), len(self.points))
        ] + [
            "  %s: %s: %s" % (p.point.label, p.error.kind, p.error.message)
            for p in failed
        ]
        return "\n".join(lines)

    def raise_errors(self) -> None:
        """Raise :class:`SweepError` summarizing any failed points."""
        if self.errors():
            raise SweepError(self.failure_summary())

    def summaries(self) -> list[dict]:
        """Summaries of the successful points, in sweep order."""
        return [p.summary for p in self.points if p.ok]

    def by_key(self) -> dict[tuple[str, str, str], PointResult]:
        """Results keyed by ``(workload, dataset, setup)``."""
        return {p.point.key: p for p in self.points}

    def results_by_key(self) -> dict[tuple[str, str, str], object]:
        """Full ``SimResult`` objects keyed by ``(workload, dataset, setup)``.

        Only available when the runner was built with ``return_full=True``
        and every point succeeded.
        """
        self.raise_errors()
        out = {}
        for p in self.points:
            if p.result is None:
                raise SweepError(
                    "point %s carries no full result (runner built with "
                    "return_full=False)" % p.point.label
                )
            out[p.point.key] = p.result
        return out


def run_attempts(
    execute, policy: RetryPolicy, on_failure, attempt: int = 1
) -> PointResult:
    """The one attempt loop: run a point until it settles.

    ``execute(attempt=n)`` runs one attempt; a failed one goes to
    ``on_failure`` and runs again after the policy's backoff while
    :meth:`RetryPolicy.should_retry` says so.  Serial sweeps, the pool's
    serial fallback and the sweep service's worker threads settle
    points here; the pool takes the same decision but requeues instead
    of sleeping.
    """
    while True:
        result = execute(attempt=attempt)
        if not policy.should_retry(result, attempt, on_failure):
            return result
        delay = policy.delay(attempt)
        if delay > 0:
            time.sleep(delay)
        attempt += 1


# ----------------------------------------------------------------------
class SweepRunner:
    """Executes sweeps of simulation points, serially or across processes.

    Parameters
    ----------
    workers:
        ``None``, 0 or 1 → run serially in-process.  ``>= 2`` → fan out
        over a process pool of that size.
    trace_cache:
        A :class:`TraceCache` to share, ``None`` for the default on-disk
        cache (``$REPRO_TRACE_CACHE`` / ``~/.cache/repro/traces``), or
        ``False`` to disable disk caching (traces regenerate per run).
    return_full:
        Carry full :class:`~repro.system.machine.SimResult` objects on
        each :class:`PointResult` (needed by the figure drivers).  Turn
        off for metric-only sweeps to keep inter-process traffic small.
    telemetry:
        Instrument every point with a per-point telemetry session; each
        :class:`PointResult` then carries a JSON-safe timeline payload
        (``PointResult.telemetry``) that crosses the process boundary.
    telemetry_interval:
        Sampling cadence (simulated cycles) when ``telemetry`` is on.
    retry:
        The sweep's :class:`RetryPolicy` (timeouts, bounded retry with
        backoff, pool-respawn budget); ``None`` uses the defaults.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` injected into
        point execution — testing/CI only.
    ledger:
        Optional :class:`~repro.runtime.ledger.RunLedger`.  Settled
        points journal to it as they finish; points already journaled
        as successful (a resumed run) are restored instead of
        re-executed.
    tracer:
        Optional :class:`~repro.telemetry.spans.SpanRecorder` journaling
        this runner's spans (installed as the process-wide current
        recorder for the duration of :meth:`run`).  ``None`` uses
        whatever recorder is already current — tracing stays off when
        there is none.
    """

    def __init__(
        self,
        workers: int | None = None,
        trace_cache: TraceCache | bool | None = None,
        return_full: bool = True,
        telemetry: bool = False,
        telemetry_interval: int = 50_000,
        retry: RetryPolicy | None = None,
        faults=None,
        ledger=None,
        tracer=None,
    ):
        self.workers = int(workers or 0)
        if trace_cache is False:
            trace_cache = TraceCache(enabled=False)
        elif trace_cache is None:
            trace_cache = TraceCache()
        self.trace_cache = trace_cache
        self.return_full = return_full
        self.telemetry = bool(telemetry)
        self.telemetry_interval = int(telemetry_interval)
        self.retry = retry or RetryPolicy()
        self.faults = faults
        self.ledger = ledger
        self.tracer = tracer
        self._memo: dict = {}

    @property
    def parallel(self) -> bool:
        """Whether this runner fans out over a process pool."""
        return self.workers >= 2

    def clear_memo(self) -> None:
        """Drop in-memory trace memoization (disk entries are kept)."""
        self._memo.clear()

    # ------------------------------------------------------------------
    def run(self, points, config=None) -> SweepReport:
        """Execute ``points`` and return an ordered :class:`SweepReport`.

        The base :class:`~repro.system.config.SystemConfig` is resolved
        exactly once here (per-point variants derive from it); every
        point gets a fresh ``Machine``, so no simulator state leaks
        between points in either execution mode.

        With a ledger attached, points journaled as successful by a
        previous run of the same run id are restored without execution
        and every fresh outcome is journaled as it lands — interrupting
        the process at any moment loses at most the points still in
        flight.
        """
        tracer = self.tracer if self.tracer is not None else _spans.current()
        with _spans.use(tracer):
            return self._run(points, config, tracer)

    def _run(self, points, config, tracer) -> SweepReport:
        from ..system.config import SystemConfig

        points = list(points)
        config = config or SystemConfig.scaled_baseline()
        interval = self.telemetry_interval if self.telemetry else None
        journal = RunJournal(
            points,
            workers=self.workers if self.parallel else 1,
            mode="parallel" if self.parallel else "serial",
            ledger=self.ledger,
            tracer=tracer,
        )
        if self.ledger is not None:
            self.ledger.open(
                telemetry=self.telemetry,
                telemetry_interval=interval,
            )
            for idx, point in enumerate(points):
                restored = self.ledger.restore(point)
                if restored is not None:
                    journal.adopt(idx, restored, restored=True)
        journal.start()
        todo = [(i, p) for i, p in enumerate(points) if i not in journal.settled]

        warm_stats: list[tuple[bool, float, int]] = []
        if self.parallel and todo:
            warm_stats = self._run_parallel(todo, config, interval, journal)
        else:
            self._run_serial(todo, config, interval, journal)

        results = [journal.settled[i] for i in range(len(points))]
        metrics = journal.metrics
        for hit, seconds, quarantined in warm_stats:
            metrics.add_fetch(hit, seconds, quarantined)
        for r in results:
            if r.telemetry:
                events = r.telemetry.get("events") or {}
                metrics.events_emitted += int(events.get("emitted", 0))
                metrics.events_dropped += int(events.get("dropped", 0))
        journal.finish()
        return SweepReport(points=results, metrics=metrics)

    # ------------------------------------------------------------------
    def _run_serial(
        self,
        todo,
        config,
        interval,
        journal: RunJournal,
        first_attempts: dict[int, int] | None = None,
    ) -> None:
        """In-process execution through the shared attempt loop."""
        for idx, point in todo:
            execute = partial(
                execute_point,
                point,
                config,
                self.trace_cache,
                self._memo,
                self.return_full,
                telemetry_interval=interval,
                index=idx,
                faults=self.faults,
                timeout=self.retry.timeout,
            )
            result = run_attempts(
                execute,
                self.retry,
                partial(journal.attempt_failed, idx),
                attempt=(first_attempts or {}).get(idx, 1),
            )
            journal.settle(idx, point, result)

    def _run_parallel(
        self, todo, config, interval, journal: RunJournal
    ) -> list[tuple[bool, float, int]]:
        """Fan ``todo`` out over the supervised pool scheduler."""
        from .scheduler import PoolScheduler

        return PoolScheduler(self).run(todo, config, interval, journal)
