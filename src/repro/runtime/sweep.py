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
  timeout and bounded retries with exponential backoff.  Deterministic
  failures (bad arguments, simulation bugs) fail fast; transient ones
  (injected faults, worker deaths, timeouts, OOM kills) retry.  A broken
  process pool is respawned — repeatedly-broken pools degrade to fewer
  workers and ultimately to in-process serial execution — and completed
  results are never lost.  With a :class:`~repro.runtime.ledger.RunLedger`
  attached, the run, each settled point and the final metrics journal
  to disk as they happen, so a killed sweep resumes from where it died
  and ``repro status`` reads the ledger alone.
* **Metrics** — per-point wall time, trace-cache hit/miss counts, trace
  generation counts, aggregate worker utilization, and the resilience
  counters (retries, timeouts, pool recoveries, quarantined cache
  entries, ledger-restored points), carried on the returned
  :class:`SweepReport`.
* **Observability** — with a :mod:`~repro.telemetry.spans` recorder
  active (passed as ``tracer=`` or installed via
  :func:`repro.telemetry.spans.set_current`), the sweep journals a
  structured timeline: per-point spans, retry/timeout/respawn instants,
  and a final ``F`` record carrying the sweep metrics verbatim — the
  substrate behind the Chrome-trace export and the live state of
  unsettled points in ``repro status``.

The execution machinery itself lives in the sibling modules this one
re-exports from: :mod:`~repro.runtime.executor` (how one point runs,
worker plumbing) and :mod:`~repro.runtime.scheduler` (the supervised
pool).  On a cold cache the runner first warms the trace cache over the
sweep's *unique* trace specs (in parallel), so the simulation phase
never traces the same workload twice across workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..telemetry import spans as _spans
from .executor import (  # noqa: F401 — re-exported; pre-split import paths
    POINT_TIMEOUT_KIND,
    WORKER_CRASH_KIND,
    PointTimeout,
    _execute_point,
    _fetch_trace,
    _watchdog,
    _worker_execute,
    _worker_init,
    _worker_warm,
    execute_point,
    resolve_point_config,
)
from .points import PointError, PointResult, SweepPoint
from .trace_cache import TraceCache

__all__ = [
    "SweepRunner",
    "SweepReport",
    "SweepMetrics",
    "SweepError",
    "RetryPolicy",
    "PointTimeout",
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

    ``timeout`` is enforced twice in parallel mode: a soft in-worker
    ``SIGALRM`` watchdog that interrupts the point cleanly at
    ``timeout`` seconds, and a supervisor-side hard deadline at
    ``2 × timeout + 5`` that kills and respawns the pool if a worker is
    wedged beyond signals.  Serial sweeps use the soft watchdog only
    (when the platform supports ``setitimer`` on the main thread).
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
class SweepMetrics:
    """Aggregate execution metrics of one sweep.

    ``workers`` is the number of processes that *actually executed*
    points: a runner built with ``workers=1`` (or 0/None) falls back to
    the serial in-process path, and its metrics must say ``workers=1``,
    ``mode="serial"`` — utilization is normalized by the executing
    worker count, never by the requested pool size.

    The resilience counters record recovery work: ``retries`` (extra
    attempts scheduled), ``timeouts`` (watchdog expiries observed),
    ``recovered_workers`` (pool respawn events after crashes or hard
    timeouts), ``quarantined_entries`` (corrupt trace-cache entries
    quarantined and regenerated) and ``restored`` (points restored from
    a run ledger instead of executed).

    ``events_emitted``/``events_dropped`` aggregate the per-point
    telemetry ring-buffer accounting of a ``--telemetry`` sweep, so
    reports (and the CLI's dropped-events warning) can surface ring
    overflow without digging through every point payload.
    """

    workers: int = 1
    mode: str = "serial"  # "serial" | "parallel"
    total_points: int = 0
    errors: int = 0
    elapsed: float = 0.0
    point_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    traces_generated: int = 0
    retries: int = 0
    timeouts: int = 0
    recovered_workers: int = 0
    quarantined_entries: int = 0
    restored: int = 0
    events_emitted: int = 0
    events_dropped: int = 0

    @property
    def utilization(self) -> float:
        """Busy fraction of the worker pool: Σ point time / (elapsed × workers).

        0.0 for degenerate sweeps (no elapsed time yet), and capped at
        1.0 — timer granularity can make Σ point time marginally exceed
        wall time on the serial path, and a ">100% busy" pool is
        meaningless.
        """
        denominator = self.elapsed * max(self.workers, 1)
        if denominator <= 0:
            return 0.0
        return min(1.0, self.point_time / denominator)

    def as_dict(self) -> dict:
        """JSON-safe form."""
        return {
            "workers": self.workers,
            "mode": self.mode,
            "total_points": self.total_points,
            "errors": self.errors,
            "elapsed_s": self.elapsed,
            "point_time_s": self.point_time,
            "utilization": self.utilization,
            "trace_cache_hits": self.cache_hits,
            "trace_cache_misses": self.cache_misses,
            "traces_generated": self.traces_generated,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "recovered_workers": self.recovered_workers,
            "quarantined_entries": self.quarantined_entries,
            "restored_points": self.restored,
            "events_emitted": self.events_emitted,
            "events_dropped": self.events_dropped,
        }

    def to_text(self) -> str:
        """One-line human-readable summary."""
        text = (
            "%d points (%d errors) in %.2fs wall / %.2fs cpu, "
            "%d %s worker(s) at %.0f%% utilization, "
            "trace cache %d hits / %d misses"
            % (
                self.total_points,
                self.errors,
                self.elapsed,
                self.point_time,
                self.workers,
                self.mode,
                100.0 * self.utilization,
                self.cache_hits,
                self.cache_misses,
            )
        )
        if (
            self.retries
            or self.timeouts
            or self.recovered_workers
            or self.quarantined_entries
            or self.restored
        ):
            text += (
                "; resilience: %d retries, %d timeouts, %d pool "
                "recoveries, %d quarantined, %d restored"
                % (
                    self.retries,
                    self.timeouts,
                    self.recovered_workers,
                    self.quarantined_entries,
                    self.restored,
                )
            )
        return text


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
        #: Watchdog timeouts per point index of the current run.
        self._timeouts: dict[int, int] = {}
        #: Lifetime resilience tallies (across runs) backing the
        #: telemetry gauges registered by :meth:`register_telemetry`.
        self.counters: dict[str, int] = {
            "retries": 0,
            "timeouts": 0,
            "recovered_workers": 0,
            "quarantined_entries": 0,
            "restored_points": 0,
            "points_completed": 0,
            "points_failed": 0,
        }

    @property
    def parallel(self) -> bool:
        """Whether this runner fans out over a process pool."""
        return self.workers >= 2

    def clear_memo(self) -> None:
        """Drop in-memory trace memoization (disk entries are kept)."""
        self._memo.clear()

    def register_telemetry(self, registry, prefix: str = "sweep") -> None:
        """Expose the lifetime resilience counters as pull-based gauges."""
        for name in self.counters:
            registry.gauge(
                "%s.%s" % (prefix, name),
                (lambda key: lambda: self.counters[key])(name),
            )

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
        start = time.perf_counter()
        interval = self.telemetry_interval if self.telemetry else None
        metrics = SweepMetrics(
            workers=self.workers if self.parallel else 1,
            mode="parallel" if self.parallel else "serial",
        )

        slots: dict[int, PointResult] = {}
        if self.ledger is not None:
            self.ledger.open(
                telemetry=self.telemetry,
                telemetry_interval=interval,
            )
            for idx, point in enumerate(points):
                restored = self.ledger.restore(point)
                if restored is not None:
                    slots[idx] = restored
            self.ledger.start_run(points, metrics.workers, metrics.mode)
        todo = [(i, p) for i, p in enumerate(points) if i not in slots]
        self._timeouts = {}

        if tracer is not None:
            tracer.meta(
                "sweep.run",
                run_id=getattr(self.ledger, "run_id", None),
                total=len(points),
                labels=[p.label for p in points],
                workers=metrics.workers,
                mode=metrics.mode,
                telemetry=self.telemetry,
            )

        def on_final(idx: int, point: SweepPoint, result: PointResult) -> None:
            slots[idx] = result
            if self.ledger is not None:
                self.ledger.record(
                    point, result, timeouts=self._timeouts.get(idx, 0)
                )
            if tracer is not None:
                attrs = dict(
                    index=idx,
                    label=point.label,
                    ok=result.ok,
                    attempts=result.attempts,
                    cache_hit=result.trace_cache_hit,
                    tier=result.replay_tier,
                    wall_time=result.wall_time,
                    quarantined=result.cache_quarantined,
                    restored=False,
                )
                if not result.ok:
                    attrs["error_kind"] = result.error.kind
                tracer.event("point.final", **attrs)

        warm_stats: list[tuple[bool, float, int]] = []
        if self.parallel and todo:
            warm_stats = self._run_parallel(
                todo, config, interval, metrics, on_final
            )
        else:
            self._run_serial(todo, config, interval, metrics, on_final)

        results = [slots[i] for i in range(len(points))]
        self._finalize_metrics(
            metrics, results, warm_stats, time.perf_counter() - start
        )
        self._accumulate(metrics)
        if self.ledger is not None:
            self.ledger.finish_run(metrics.as_dict())
        if tracer is not None:
            tracer.meta("sweep.finish", kind="F", metrics=metrics.as_dict())
        return SweepReport(points=results, metrics=metrics)

    # ------------------------------------------------------------------
    def _should_retry(
        self,
        result: PointResult,
        attempt: int,
        metrics: SweepMetrics,
        index: int | None = None,
    ) -> bool:
        """One retry decision shared by the serial and parallel paths.

        Every metric increment here has a 1:1 span-sidecar instant
        (``point.timeout`` / ``point.retry``), so a live ``repro status``
        can derive the resilience counters exactly from the timeline.
        """
        if result.ok:
            return False
        trc = _spans.current()
        if result.error.kind == POINT_TIMEOUT_KIND:
            metrics.timeouts += 1
            self._timeouts[index] = self._timeouts.get(index, 0) + 1
            if trc is not None:
                trc.event(
                    "point.timeout",
                    index=index,
                    label=result.point.label,
                    attempt=attempt,
                )
        if attempt < self.retry.max_attempts and self.retry.is_transient(
            result.error
        ):
            metrics.retries += 1
            if trc is not None:
                trc.event(
                    "point.retry",
                    index=index,
                    label=result.point.label,
                    attempt=attempt,
                    error_kind=result.error.kind,
                )
            return True
        return False

    def _run_serial(
        self,
        todo,
        config,
        interval,
        metrics: SweepMetrics,
        on_final,
        first_attempts: dict[int, int] | None = None,
    ) -> None:
        """In-process execution with the same retry/timeout decisions."""
        for idx, point in todo:
            attempt = (first_attempts or {}).get(idx, 1)
            while True:
                result = execute_point(
                    point,
                    config,
                    self.trace_cache,
                    self._memo,
                    self.return_full,
                    telemetry_interval=interval,
                    index=idx,
                    faults=self.faults,
                    timeout=self.retry.timeout,
                    attempt=attempt,
                )
                if not self._should_retry(result, attempt, metrics, index=idx):
                    on_final(idx, point, result)
                    break
                delay = self.retry.delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1

    def _run_parallel(
        self, todo, config, interval, metrics: SweepMetrics, on_final
    ) -> list[tuple[bool, float, int]]:
        """Fan ``todo`` out over the supervised pool scheduler."""
        from .scheduler import PoolScheduler

        return PoolScheduler(self).run(todo, config, interval, metrics, on_final)

    # ------------------------------------------------------------------
    def _finalize_metrics(
        self, metrics: SweepMetrics, results, warm_stats, elapsed
    ) -> None:
        metrics.total_points = len(results)
        metrics.errors = sum(1 for r in results if not r.ok)
        metrics.elapsed = elapsed
        for hit, seconds, quarantined in warm_stats:
            metrics.point_time += seconds
            metrics.quarantined_entries += quarantined
            if hit:
                metrics.cache_hits += 1
            else:
                metrics.cache_misses += 1
                metrics.traces_generated += 1
        for r in results:
            if r.telemetry:
                events = r.telemetry.get("events") or {}
                metrics.events_emitted += int(events.get("emitted", 0))
                metrics.events_dropped += int(events.get("dropped", 0))
            if r.restored:
                # Restored points were executed (and accounted) by the
                # run that journaled them; only count them as restored.
                metrics.restored += 1
                continue
            metrics.point_time += r.wall_time
            metrics.quarantined_entries += r.cache_quarantined
            if r.trace_cache_hit is True:
                metrics.cache_hits += 1
            elif r.trace_cache_hit is False:
                metrics.cache_misses += 1
                metrics.traces_generated += 1

    def _accumulate(self, metrics: SweepMetrics) -> None:
        """Fold one run's metrics into the lifetime telemetry counters."""
        self.counters["retries"] += metrics.retries
        self.counters["timeouts"] += metrics.timeouts
        self.counters["recovered_workers"] += metrics.recovered_workers
        self.counters["quarantined_entries"] += metrics.quarantined_entries
        self.counters["restored_points"] += metrics.restored
        self.counters["points_completed"] += metrics.total_points - metrics.errors
        self.counters["points_failed"] += metrics.errors
