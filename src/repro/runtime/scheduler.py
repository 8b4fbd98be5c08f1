"""Pool scheduling: the supervised parallel execution seam of a sweep.

:class:`PoolScheduler` owns everything that touches the
:class:`~concurrent.futures.ProcessPoolExecutor`: cache warming,
backoff-aware submission, hard-deadline enforcement, pool
respawn/halving and the final degradation to serial execution.  Retry
*decisions* are :meth:`~repro.runtime.sweep.RetryPolicy.should_retry`,
the one decision every execution path takes; the scheduler only
decides *where and when* points run, and settles them through the
run's :class:`~repro.runtime.ledger.RunJournal`.

When a span recorder is active (:func:`repro.telemetry.spans.current`)
the scheduler journals the operational events a live ``repro status``
and the Chrome-trace timeline need: a ``sweep.warm`` span over the
cache-warming phase, ``pool.respawn`` instants at every recovery
(reasons ``warm-breakage`` / ``breakage`` / ``hard-timeout``), and a
``pool.serial_degrade`` instant when the respawn budget runs out.
Worker processes journal their own ``point`` spans into the same
sidecar via the pool initializer.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from functools import partial

from ..telemetry import spans as _spans
from .executor import (
    POINT_TIMEOUT_KIND,
    WORKER_CRASH_KIND,
    _worker_execute,
    _worker_init,
    _worker_warm,
)
from .points import PointError, PointResult

__all__ = ["PoolScheduler"]


class PoolScheduler:
    """Supervised pool execution: watchdogs, respawn, degradation.

    The scheduler keeps at most ``runner.workers`` points in flight.  A
    completed future carrying a transient error requeues its point with
    backoff; a broken pool (worker killed by signal/OOM) converts every
    in-flight point into a structured ``WorkerCrash`` — retried like any
    transient failure — and respawns the pool, halving the worker count
    after repeated breakage.  A point past its *hard* deadline (the
    in-worker soft watchdog missed) is failed as a timeout and the
    pool's processes are terminated, so one wedged worker cannot hold
    the sweep hostage.  Once the respawn budget is exhausted the
    remaining points finish on the in-process serial path — degraded,
    but never lost.
    """

    def __init__(self, runner):
        self.runner = runner

    # ------------------------------------------------------------------
    def _make_pool(self, workers: int, root: str | None) -> ProcessPoolExecutor:
        trc = _spans.current()
        sidecar = (
            str(trc.sidecar) if trc is not None and trc.sidecar is not None
            else None
        )
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(root, sidecar),
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor, terminate: bool) -> None:
        """Tear a pool down without waiting on its (possibly hung) tasks."""
        if terminate:
            for proc in list(getattr(pool, "_processes", {}).values() or []):
                try:
                    proc.terminate()
                except Exception:
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def run(self, todo, config, interval, journal):
        """Execute ``todo`` over the pool; returns the warm-phase stats."""
        runner = self.runner
        policy = runner.retry
        metrics = journal.metrics
        workers = runner.workers
        root = (
            str(runner.trace_cache.root) if runner.trace_cache.enabled else None
        )
        trc = _spans.current()

        pool = self._make_pool(workers, root)
        warm_stats: list[tuple[bool, float, int]] = []
        if root is not None:
            unique = list(dict.fromkeys(p.trace_spec for _, p in todo))
            warm_span = (
                trc.start("sweep.warm", unique=len(unique))
                if trc is not None
                else None
            )
            try:
                warm_stats = list(pool.map(_worker_warm, unique))
            except BrokenExecutor:
                # Traces regenerate during execution; recover and move on.
                metrics.recovered_workers += 1
                if trc is not None:
                    trc.event(
                        "pool.respawn", reason="warm-breakage", workers=workers
                    )
                self._kill_pool(pool, terminate=False)
                pool = self._make_pool(workers, root)
                warm_stats = []
            if warm_span is not None:
                warm_span.set(
                    hits=sum(1 for h, _s, _q in warm_stats if h),
                    misses=sum(1 for h, _s, _q in warm_stats if not h),
                    quarantined=sum(q for _h, _s, q in warm_stats),
                )
                trc.finish(warm_span)

        # (index, point, attempt, not_before) — submission-ordered.
        pending: list[list] = [[idx, p, 1, 0.0] for idx, p in todo]
        in_flight: dict = {}  # future -> (index, point, attempt, deadline)
        respawns = 0

        def finish_or_requeue(idx, point, attempt, result):
            if policy.should_retry(
                result, attempt, partial(journal.attempt_failed, idx)
            ):
                pending.append(
                    [
                        idx,
                        point,
                        attempt + 1,
                        time.monotonic() + policy.delay(attempt),
                    ]
                )
            else:
                journal.settle(idx, point, result)

        def crash_result(point, attempt, message):
            return PointResult(
                point=point,
                error=PointError(kind=WORKER_CRASH_KIND, message=message),
                attempts=attempt,
            )

        def handle_breakage():
            """Respawn (or degrade) after the pool broke."""
            nonlocal pool, workers, respawns
            respawns += 1
            metrics.recovered_workers += 1
            if trc is not None:
                trc.event(
                    "pool.respawn",
                    reason="breakage",
                    respawns=respawns,
                    workers=workers,
                    in_flight=len(in_flight),
                )
            for fut, (idx, p, att, _dl) in list(in_flight.items()):
                finish_or_requeue(
                    idx,
                    p,
                    att,
                    crash_result(
                        p,
                        att,
                        "worker pool broke while %s was in flight" % p.label,
                    ),
                )
            in_flight.clear()
            self._kill_pool(pool, terminate=False)
            if respawns > 1:
                workers = max(1, workers // 2)
            if respawns <= policy.max_pool_respawns:
                pool = self._make_pool(workers, root)

        try:
            while pending or in_flight:
                if respawns > policy.max_pool_respawns:
                    # Degrade to in-process execution for whatever is left,
                    # preserving each point's attempt count.
                    remaining = sorted(pending)
                    pending = []
                    if trc is not None:
                        trc.event(
                            "pool.serial_degrade", remaining=len(remaining)
                        )
                    runner._run_serial(
                        [(idx, p) for idx, p, _att, _nb in remaining],
                        config,
                        interval,
                        journal,
                        first_attempts={
                            idx: att for idx, _p, att, _nb in remaining
                        },
                    )
                    break

                now = time.monotonic()
                # Fill the pool with ready (backoff-elapsed) points.
                submit_failed = False
                while pending and len(in_flight) < workers:
                    entry = next((e for e in pending if e[3] <= now), None)
                    if entry is None:
                        break
                    pending.remove(entry)
                    idx, point, attempt, _nb = entry
                    try:
                        fut = pool.submit(
                            _worker_execute,
                            point,
                            config,
                            runner.return_full,
                            interval,
                            idx,
                            runner.faults,
                            policy.timeout,
                            attempt,
                        )
                    except BrokenExecutor:
                        pending.append(entry)
                        submit_failed = True
                        break
                    deadline = (
                        None
                        if policy.hard_timeout is None
                        else now + policy.hard_timeout
                    )
                    in_flight[fut] = (idx, point, attempt, deadline)
                if submit_failed:
                    handle_breakage()
                    continue

                if not in_flight:
                    if pending:  # everything is backing off
                        wake = min(e[3] for e in pending)
                        time.sleep(max(0.01, min(wake - time.monotonic(), 0.5)))
                    continue

                # Wait until a completion, a hard deadline, or a backoff
                # expiry — whichever comes first.
                bounds = [
                    dl for _i, _p, _a, dl in in_flight.values() if dl is not None
                ]
                if pending:
                    bounds.append(min(e[3] for e in pending))
                timeout = (
                    max(0.0, min(bounds) - time.monotonic()) if bounds else None
                )
                done, _not_done = wait(
                    set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                )

                broken = False
                for fut in done:
                    idx, point, attempt, _dl = in_flight.pop(fut)
                    try:
                        result = fut.result()
                    except BaseException as exc:
                        broken = broken or isinstance(exc, BrokenExecutor)
                        result = crash_result(
                            point,
                            attempt,
                            "worker process died while executing %s (%s: %s)"
                            % (point.label, type(exc).__name__, exc),
                        )
                    finish_or_requeue(idx, point, attempt, result)
                if broken:
                    handle_breakage()
                    continue

                # Hard-deadline sweep: the in-worker watchdog missed.
                now = time.monotonic()
                expired = [
                    (fut, meta)
                    for fut, meta in in_flight.items()
                    if meta[3] is not None and now >= meta[3]
                ]
                if expired:
                    metrics.recovered_workers += 1
                    if trc is not None:
                        trc.event(
                            "pool.respawn",
                            reason="hard-timeout",
                            expired=len(expired),
                            workers=workers,
                        )
                    for fut, (idx, point, attempt, _dl) in expired:
                        in_flight.pop(fut)
                        finish_or_requeue(
                            idx,
                            point,
                            attempt,
                            PointResult(
                                point=point,
                                error=PointError(
                                    kind=POINT_TIMEOUT_KIND,
                                    message=(
                                        "point exceeded the %.1fs hard "
                                        "watchdog (worker killed)"
                                        % policy.hard_timeout
                                    ),
                                ),
                                attempts=attempt,
                            ),
                        )
                    # The wedged worker never returns: kill the pool and
                    # requeue the innocent in-flight points unchanged.
                    for fut, (idx, point, attempt, _dl) in in_flight.items():
                        pending.append([idx, point, attempt, 0.0])
                    in_flight.clear()
                    self._kill_pool(pool, terminate=True)
                    pool = self._make_pool(workers, root)
        finally:
            self._kill_pool(pool, terminate=False)
        return warm_stats
