"""The point watchdog: fires on any thread, never late, never swallowed.

The watchdog is a timer thread that raises ``PointTimeout`` in the
guarded thread.  These tests pin what the sweep runner, the pool
workers and the ``repro serve`` worker threads rely on: it interrupts a
pure-Python loop wherever it runs, a guarded block that finishes in
time never sees the exception after it exits, and code inside the point
that catches ``Exception`` (the trace cache's load fallbacks) cannot
swallow it.
"""

from __future__ import annotations

import threading
import time

from repro.runtime import PointTimeout, SweepPoint, TraceCache
from repro.runtime.executor import _watchdog, execute_point
from repro.system.config import SystemConfig

MAX_REFS = 3000
SCALE_SHIFT = -6


def spin(seconds: float) -> None:
    """Busy-wait in Python bytecode (interruptible at every iteration)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def late_timeouts(calls: int, timeout: float, work: float) -> int:
    """Guarded calls finishing just inside ``timeout``; count late raises.

    After each block the thread sleeps past the timeout, so a timer left
    armed gets the interpreter lock and fires, then runs bytecode where
    a pending exception would be raised.
    """
    late = 0
    for _ in range(calls):
        try:
            with _watchdog(timeout):
                spin(work)
        except PointTimeout:
            pass  # fired inside the block: a legitimate timeout
        try:
            time.sleep(timeout)
            spin(0.001)
        except PointTimeout:
            late += 1
    return late


def on_worker_thread(fn):
    """Run ``fn`` on a fresh thread and return what it returned."""
    out = {}
    thread = threading.Thread(target=lambda: out.setdefault("value", fn()))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    return out["value"]


class TestWatchdog:
    def test_never_fires_after_the_block_on_the_main_thread(self):
        assert late_timeouts(100, timeout=0.004, work=0.0038) == 0

    def test_never_fires_after_the_block_on_a_worker_thread(self):
        late = on_worker_thread(
            lambda: late_timeouts(100, timeout=0.004, work=0.0038)
        )
        assert late == 0

    def test_interrupts_a_python_loop_on_a_worker_thread(self):
        def guarded():
            start = time.perf_counter()
            try:
                with _watchdog(0.2):
                    spin(10.0)
            except PointTimeout:
                return time.perf_counter() - start
            return None

        elapsed = on_worker_thread(guarded)
        assert elapsed is not None and 0.2 <= elapsed < 1.0

    def test_no_timeout_starts_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(
            threading.Timer, "start", lambda timer: started.append(timer)
        )
        with _watchdog(None):
            pass
        with _watchdog(0):
            pass
        assert started == []

    def test_point_times_out_on_a_worker_thread(self, tmp_path, monkeypatch):
        from repro.system import runner as runner_mod

        monkeypatch.setattr(runner_mod, "simulate", lambda *a, **k: spin(10.0))
        point = SweepPoint(
            "PR", "kron", "none", max_refs=MAX_REFS, scale_shift=SCALE_SHIFT
        )
        cache = TraceCache(tmp_path / "traces")
        cache.get_or_trace(point.trace_spec)
        result = on_worker_thread(
            lambda: execute_point(
                point, SystemConfig.scaled_baseline(), cache, {},
                return_full=False, timeout=0.3,
            )
        )
        assert not result.ok
        assert result.error.kind == "PointTimeout"
        assert result.error.message == "point exceeded the 0.3s watchdog"
        assert 0.3 <= result.wall_time < 1.3


class TestTimeoutInsideTheTraceCache:
    def test_timeout_during_a_cache_load_fails_the_point(
        self, tmp_path, monkeypatch
    ):
        """A timeout that lands in the entry load fails the point as
        ``PointTimeout``; the cache neither drops nor quarantines the
        entry, and counts no second miss."""
        from repro.runtime import trace_cache as cache_mod

        point = SweepPoint(
            "PR", "kron", "none", max_refs=MAX_REFS, scale_shift=SCALE_SHIFT
        )
        cache = TraceCache(tmp_path / "traces")
        cache.get_or_trace(point.trace_spec)
        misses = cache.misses
        checksum = cache_mod._sha256_file
        fired = []

        def timeout_once(path):
            if not fired:
                fired.append(path)
                raise PointTimeout("watchdog fired during the load")
            return checksum(path)

        monkeypatch.setattr(cache_mod, "_sha256_file", timeout_once)
        result = execute_point(
            point, SystemConfig.scaled_baseline(), cache, {}, return_full=False
        )
        assert fired
        assert not result.ok and result.error.kind == "PointTimeout"
        assert cache.misses == misses
        assert cache.quarantined == 0
        assert not (tmp_path / "traces" / "quarantine").exists()
        assert cache.lookup(point.trace_spec) is not None
