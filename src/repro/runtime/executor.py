"""Point execution: the seam shared by serial sweeps, pool workers and
the sweep service.

This module owns *how one point runs* — config resolution, trace fetch,
the watchdog, structured error capture — and the module-level
worker-process plumbing the :class:`~repro.runtime.scheduler.PoolScheduler`
pickles across the pool boundary.  The attempt loop around it lives in
:mod:`repro.runtime.sweep` (:func:`~repro.runtime.sweep.run_attempts`).

The watchdog is a timer thread that raises :class:`PointTimeout` in the
point's own thread, so a ``timeout`` works wherever the point runs: on
the main thread of a serial sweep, in a pool worker and on a ``repro
serve`` worker thread alike.

Every execution of a point is wrapped in a ``point`` span (see
:mod:`repro.telemetry.spans`) when tracing is active: begin records land
in the run's span sidecar *before* the simulation starts, so a live
``repro status`` sees in-flight points, and a worker killed mid-point
leaves exactly an unmatched begin — the crash is visible on the
timeline.  With tracing off the span layer costs one global read.
"""

from __future__ import annotations

import ctypes
import threading
import time
from contextlib import contextmanager

from ..telemetry import spans as _spans
from .points import PointError, PointResult, SweepPoint, TraceSpec
from .trace_cache import TraceCache, trace_key

__all__ = [
    "POINT_TIMEOUT_KIND",
    "WORKER_CRASH_KIND",
    "PointTimeout",
    "resolve_point_config",
    "execute_point",
]

#: ``PointError.kind`` recorded when a point hits its watchdog timeout.
POINT_TIMEOUT_KIND = "PointTimeout"

#: ``PointError.kind`` recorded when a worker process dies mid-point.
WORKER_CRASH_KIND = "WorkerCrash"


class PointTimeout(BaseException):
    """Raised inside a point when it exceeds the watchdog timeout.

    A ``BaseException``, so the ``except Exception`` fallbacks inside the
    point (a trace-cache load that drops an unreadable entry, say) let
    it through instead of swallowing it; :func:`execute_point` catches
    it by name.  The class name doubles as the structured
    ``PointError.kind`` (:data:`POINT_TIMEOUT_KIND`).
    """


def resolve_point_config(point: SweepPoint, base):
    """Apply a point's cache-geometry variant to the sweep's base config."""
    config = base
    if point.llc_multiplier is not None:
        config = config.with_llc_multiplier(point.llc_multiplier)
    if point.l2_config is not None:
        mult, assoc = point.l2_config
        if base.l2 is None:
            raise ValueError("l2_config variant requires a base config with an L2")
        size = None if mult is None else base.l2.size_bytes * mult
        config = config.with_l2(size, assoc)
    if point.rob_entries is not None:
        config = config.with_rob(point.rob_entries)
    # ``point.mrb_entries`` names the point and configures nothing:
    # replay queues no request, so the buffer would change no result.
    return config


#: ``PyThreadState_SetAsyncExc(thread_id, exc)``: schedules the exception
#: class ``exc`` in a thread; a NULL ``ctypes.py_object()`` clears it.
_set_async_exc = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.c_ulong, ctypes.py_object)(
    ("PyThreadState_SetAsyncExc", ctypes.pythonapi)
)


@contextmanager
def _watchdog(seconds: float | None):
    """Raise :class:`PointTimeout` in this thread after ``seconds``.

    A timer thread schedules the exception through
    ``PyThreadState_SetAsyncExc``; the interpreter raises it at the
    guarded thread's next bytecode boundary, whichever thread that is.
    It cannot interrupt a blocking system call or a long C routine:
    those see it only when they return, and the pool's hard deadline
    backs them.  With no positive timeout no thread starts.  On exit
    the timer is disarmed under a lock and an undelivered exception is
    cleared, so code after the block never sees a late timeout.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    target = threading.get_ident()
    lock = threading.Lock()
    armed, fired = True, False

    def fire() -> None:
        nonlocal fired
        with lock:
            if armed:
                fired = True
                _set_async_exc(target, PointTimeout)

    timer = threading.Timer(seconds, fire)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        with lock:
            armed = False
        timer.cancel()
        if fired:
            _set_async_exc(target, ctypes.py_object())


def _fetch_trace(spec: TraceSpec, cache: TraceCache, memo: dict):
    """Cached trace lookup: in-memory memo first, then disk, then trace.

    Returns ``(run, hit)`` where ``hit`` covers both memo and disk hits.
    """
    key = trace_key(spec)
    run = memo.get(key)
    if run is not None:
        return run, True
    run, hit = cache.get_or_trace(spec)
    memo[key] = run
    return run, hit


def execute_point(
    point: SweepPoint,
    config,
    cache: TraceCache,
    memo: dict,
    return_full: bool,
    telemetry_interval: int | None = None,
    index: int | None = None,
    faults=None,
    timeout: float | None = None,
    attempt: int = 1,
) -> PointResult:
    """Run one point, capturing any failure as a structured error.

    ``telemetry_interval`` (simulated cycles) enables per-point
    telemetry: the point result then carries a JSON-safe timeline
    payload (no raw event records — those stay per-``repro profile``),
    which survives the pickle boundary back from worker processes.

    ``index``/``faults`` inject the point's scheduled faults (testing);
    ``timeout`` arms the watchdog on the calling thread; ``attempt`` is
    carried onto the result for retry accounting.  A
    :class:`PointTimeout` raised by the watchdog is captured like any
    other failure, so every execution path reports timeouts as
    structured ``PointError(kind="PointTimeout")``.
    """
    trc = _spans.current()
    if trc is None:
        return _execute_point(
            point, config, cache, memo, return_full,
            telemetry_interval=telemetry_interval, index=index,
            faults=faults, timeout=timeout, attempt=attempt,
        )
    span = trc.start(
        "point", index=index, label=point.label, attempt=attempt
    )
    result = _execute_point(
        point, config, cache, memo, return_full,
        telemetry_interval=telemetry_interval, index=index,
        faults=faults, timeout=timeout, attempt=attempt,
    )
    span.set(
        status="ok" if result.ok else "error",
        cache_hit=result.trace_cache_hit,
    )
    if not result.ok:
        span.set(error_kind=result.error.kind)
    trc.finish(span)
    return result


def _execute_point(
    point: SweepPoint,
    config,
    cache: TraceCache,
    memo: dict,
    return_full: bool,
    telemetry_interval: int | None = None,
    index: int | None = None,
    faults=None,
    timeout: float | None = None,
    attempt: int = 1,
) -> PointResult:
    """The uninstrumented execution body behind :func:`execute_point`."""
    from ..reporting import summarize
    from ..system.runner import simulate

    start = time.perf_counter()
    hit: bool | None = None
    quarantined_before = getattr(cache, "quarantined", 0)

    def _quarantined() -> int:
        return getattr(cache, "quarantined", 0) - quarantined_before

    try:
        with _watchdog(timeout):
            if faults is not None and index is not None:
                faults.fire(
                    index,
                    cache=cache,
                    spec=point.trace_spec,
                    in_worker=_IN_WORKER,
                )
            run, hit = _fetch_trace(point.trace_spec, cache, memo)
            telemetry = None
            if telemetry_interval is not None:
                from ..telemetry import Telemetry

                telemetry = Telemetry(interval_cycles=telemetry_interval)
            result = simulate(
                run,
                config=resolve_point_config(point, config),
                setup=point.setup,
                multi_property=point.multi_property,
                telemetry=telemetry,
            )
            payload = None
            if telemetry is not None:
                from ..telemetry import telemetry_dict

                payload = telemetry_dict(
                    telemetry,
                    meta={"label": point.label, "trace": run.trace.name},
                    include_events=False,
                )
        return PointResult(
            point=point,
            summary=summarize(result),
            result=result if return_full else None,
            wall_time=time.perf_counter() - start,
            trace_cache_hit=hit,
            telemetry=payload,
            attempts=attempt,
            cache_quarantined=_quarantined(),
        )
    except (Exception, PointTimeout) as exc:
        if isinstance(exc, PointTimeout) and not exc.args:
            exc.args = ("point exceeded the %.1fs watchdog" % timeout,)
        return PointResult(
            point=point,
            error=PointError.from_exception(exc),
            wall_time=time.perf_counter() - start,
            trace_cache_hit=hit,
            attempts=attempt,
            cache_quarantined=_quarantined(),
        )


# ----------------------------------------------------------------------
# Worker-process plumbing (module-level so it pickles)
# ----------------------------------------------------------------------
_WORKER_CACHE: TraceCache | None = None
_WORKER_MEMO: dict = {}
#: Whether this module is executing inside a pool worker; selects the
#: real-crash (``os._exit``) vs raised-exception form of crash faults.
_IN_WORKER = False


def _worker_init(cache_root: str | None, span_sidecar: str | None = None) -> None:
    """Process-pool initializer: bind the worker's cache and tracer.

    ``span_sidecar`` (the run's span sidecar path) gives every worker its
    own :class:`~repro.telemetry.spans.SpanRecorder` appending to the
    shared per-run sidecar, so worker-side point spans land on the same
    timeline as the supervisor's scheduler spans.
    """
    global _WORKER_CACHE, _WORKER_MEMO, _IN_WORKER
    _WORKER_CACHE = TraceCache(cache_root, enabled=cache_root is not None)
    _WORKER_MEMO = {}
    _IN_WORKER = True
    if span_sidecar is not None:
        _spans.set_current(_spans.SpanRecorder(sidecar=span_sidecar))


def _worker_warm(spec: TraceSpec) -> tuple[bool, float, int]:
    """Phase-1 task: ensure ``spec``'s trace exists on disk.

    Returns ``(was_hit, seconds, quarantined)`` for the runner's metrics.
    """
    start = time.perf_counter()
    quarantined_before = _WORKER_CACHE.quarantined
    run, hit = _fetch_trace(spec, _WORKER_CACHE, _WORKER_MEMO)
    del run
    return (
        hit,
        time.perf_counter() - start,
        _WORKER_CACHE.quarantined - quarantined_before,
    )


def _worker_execute(
    point: SweepPoint,
    config,
    return_full: bool,
    telemetry_interval: int | None = None,
    index: int | None = None,
    faults=None,
    timeout: float | None = None,
    attempt: int = 1,
) -> PointResult:
    """Phase-2 task: simulate one point inside a worker process."""
    return execute_point(
        point,
        config,
        _WORKER_CACHE,
        _WORKER_MEMO,
        return_full,
        telemetry_interval=telemetry_interval,
        index=index,
        faults=faults,
        timeout=timeout,
        attempt=attempt,
    )
