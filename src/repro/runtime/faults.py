"""Deterministic fault injection for sweep resilience testing.

A :class:`FaultPlan` names, by *point index*, where to inject worker
crashes, hangs, transient exceptions and trace-cache corruption into a
sweep.  The plan is a frozen picklable dataclass, so it crosses the
process-pool boundary with the point it targets; plans can also select
indices probabilistically from a seed, which keeps a randomized plan
bit-reproducible across runs.

One-shot semantics
------------------
Recovery paths only make sense if a fault eventually *stops* firing: a
crash that re-fires on every retry is a deterministic failure, not a
transient one.  A plan built with ``trip_dir`` set arms each fault
exactly once across *all* processes and retries — the first attempt to
fire it atomically creates a marker file (``O_EXCL``), and later
attempts see the marker and pass through.  A plan with ``trip_dir=None``
fires on every attempt, which is how tests exercise the
retries-exhausted path.

Fault kinds
-----------
``crash``
    Inside a worker process: ``os._exit`` — indistinguishable from an
    OOM kill, breaks the pool.  In the serial/in-process path the same
    index raises :class:`WorkerCrash` instead (killing the caller's
    process would take the whole sweep down), so serial and parallel
    sweeps take identical retry decisions.
``hang``
    Sleeps ``hang_seconds`` in slices of at most 50 ms — the watchdog
    timeout is expected to interrupt it.  The watchdog cannot interrupt
    a blocking ``sleep``, so its exception lands between two slices.
``error``
    Raises :class:`FaultError`, a transient failure.
``corrupt``
    Truncates the point's on-disk trace-cache entry *before* the point
    loads it, exercising the cache's corruption-quarantine path.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FaultError",
    "WorkerCrash",
    "FaultPlan",
    "ServiceFaultPlan",
    "FAULT_KINDS",
    "SERVICE_FAULT_KINDS",
]

#: Recognized fault kinds, in the order ``fire`` applies them.
FAULT_KINDS = ("corrupt", "error", "crash", "hang")

#: Service-scope fault kinds (see :class:`ServiceFaultPlan`).
SERVICE_FAULT_KINDS = ("disk_full", "torn_tail", "kill_after_accept", "lease_steal")

#: Exit status used by injected worker crashes (distinctive in logs).
CRASH_EXIT_CODE = 66


def _trip_once(trip_dir: str | None, marker: str) -> bool:
    """Arm a one-shot fault: ``True`` exactly once per marker name.

    With no ``trip_dir`` every call fires (tests exercising the
    re-firing path); with one, the first caller to atomically create
    ``<trip_dir>/<marker>.tripped`` fires and everyone after passes
    through — across processes, retries and daemon restarts.
    """
    if trip_dir is None:
        return True
    trip = Path(trip_dir)
    trip.mkdir(parents=True, exist_ok=True)
    try:
        fd = os.open(
            trip / (marker + ".tripped"),
            os.O_CREAT | os.O_EXCL | os.O_WRONLY,
        )
    except FileExistsError:
        return False
    os.close(fd)
    return True


class FaultError(RuntimeError):
    """Injected transient failure (retry is expected to succeed)."""


class WorkerCrash(RuntimeError):
    """In-process stand-in for a worker death (serial execution path).

    The class name doubles as the :class:`~repro.runtime.points.PointError`
    kind, matching the synthetic ``WorkerCrash`` errors the parallel
    scheduler records when a pool breaks — serial and parallel sweeps
    classify the same injected fault identically.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Where and what to inject, by sweep-point index.

    Parameters
    ----------
    crash, hang, error, corrupt:
        Point indices (0-based submission order) that receive each fault.
    error_prob, seed:
        Additionally select each index for an ``error`` fault with
        probability ``error_prob``, decided by ``hash(seed, index)`` —
        deterministic per (seed, index) and independent of attempt.
    hang_seconds:
        Sleep length of a ``hang`` fault; pick it comfortably above the
        watchdog timeout.
    trip_dir:
        Marker directory giving every fault one-shot semantics across
        processes and retries.  ``None`` re-fires faults on every
        attempt.
    """

    crash: tuple[int, ...] = ()
    hang: tuple[int, ...] = ()
    error: tuple[int, ...] = ()
    corrupt: tuple[int, ...] = ()
    error_prob: float = 0.0
    seed: int = 0
    hang_seconds: float = 3600.0
    trip_dir: str | None = None

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            object.__setattr__(self, kind, tuple(sorted(getattr(self, kind))))

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, **kwargs) -> "FaultPlan":
        """Parse ``"crash@2,hang@5,error@1,corrupt@3"`` into a plan.

        Each comma-separated term is ``<kind>@<index>``; a kind may
        repeat.  Unknown kinds raise ``ValueError``.
        """
        sets: dict[str, list[int]] = {kind: [] for kind in FAULT_KINDS}
        for term in filter(None, (t.strip() for t in spec.split(","))):
            kind, sep, index = term.partition("@")
            if not sep or kind not in sets:
                raise ValueError(
                    "bad fault term %r (expected <kind>@<index> with kind "
                    "in %s)" % (term, "/".join(FAULT_KINDS))
                )
            sets[kind].append(int(index))
        return cls(**{k: tuple(v) for k, v in sets.items()}, **kwargs)

    def to_spec(self) -> str:
        """Inverse of :meth:`from_spec` (index-based faults only)."""
        return ",".join(
            "%s@%d" % (kind, index)
            for kind in FAULT_KINDS
            for index in getattr(self, kind)
        )

    # ------------------------------------------------------------------
    def _selected(self, kind: str, index: int) -> bool:
        if index in getattr(self, kind):
            return True
        if kind == "error" and self.error_prob > 0:
            rng = random.Random("%d:%d" % (self.seed, index))
            return rng.random() < self.error_prob
        return False

    def _arm(self, kind: str, index: int) -> bool:
        """Whether this (kind, index) fault should fire *now*.

        With a ``trip_dir`` the marker file is created atomically; only
        the creator fires, everyone after passes through.
        """
        if not self._selected(kind, index):
            return False
        return _trip_once(self.trip_dir, "%s-%d" % (kind, index))

    def fired(self, kind: str, index: int) -> bool:
        """Whether a one-shot fault already fired (testing/CI helper)."""
        if self.trip_dir is None:
            return False
        return (Path(self.trip_dir) / ("%s-%d.tripped" % (kind, index))).exists()

    # ------------------------------------------------------------------
    def fire(self, index: int, cache=None, spec=None, in_worker: bool = False) -> None:
        """Inject this point's armed faults, in :data:`FAULT_KINDS` order.

        Called at the top of point execution.  ``cache``/``spec`` locate
        the trace-cache entry for ``corrupt`` faults; ``in_worker``
        selects ``os._exit`` vs :class:`WorkerCrash` for ``crash``.
        """
        if self._arm("corrupt", index):
            self._corrupt_entry(cache, spec)
        if self._arm("error", index):
            raise FaultError(
                "injected transient fault at point %d (seed=%d)"
                % (index, self.seed)
            )
        if self._arm("crash", index):
            if in_worker:
                os._exit(CRASH_EXIT_CODE)
            raise WorkerCrash("injected worker crash at point %d" % index)
        if self._arm("hang", index):
            end = time.monotonic() + self.hang_seconds
            while (left := end - time.monotonic()) > 0:
                time.sleep(min(left, 0.05))

    @staticmethod
    def _corrupt_entry(cache, spec) -> None:
        """Truncate the on-disk cache entry for ``spec`` (if present)."""
        if cache is None or spec is None or not getattr(cache, "enabled", False):
            return
        from .trace_cache import trace_key

        npz_path, _meta_path = cache._paths(trace_key(spec))
        try:
            data = npz_path.read_bytes()
        except OSError:
            return
        npz_path.write_bytes(data[: max(1, len(data) // 2)])


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Deterministic faults for the *service* layer (``repro serve``).

    Where :class:`FaultPlan` breaks point execution inside a worker,
    this plan breaks the machinery around it — the submission journal,
    the lease protocol, the daemon process itself — so the chaos
    harness can prove the crash-recovery invariants (no lost runs, no
    double execution beyond lease takeover).  Indices are *per-kind
    ordinals*: ``disk_full@0`` fires on the first journal append,
    ``lease_steal@1`` on the second acquired lease, and so on.

    Fault kinds
    -----------
    ``disk_full``
        The nth submission-journal append raises ``OSError(ENOSPC)``
        before writing anything — the submission must be rejected (the
        client sees a retryable 503), never half-accepted.
    ``torn_tail``
        The nth journal append writes only a prefix of its record (no
        newline, no fsync) and then ``os._exit``\\ s the daemon —
        a power loss mid-write.  Replay must skip the torn tail.
    ``kill_after_accept``
        ``os._exit`` immediately after the nth submission is journaled
        (fsync'd) but before its points are enqueued or the HTTP 202
        is sent — the canonical accept/enqueue crash window.
    ``lease_steal``
        The nth acquired lease is overwritten with a foreign owner and
        a bumped epoch before its next heartbeat — simulating another
        host's stale-lease takeover while the local worker still runs.

    One-shot semantics follow :class:`FaultPlan`: with ``trip_dir``
    set, each (kind, ordinal) fires exactly once across restarts —
    essential for ``kill_after_accept``, where the resubmitted
    request after the daemon restart must succeed.
    """

    disk_full: tuple[int, ...] = ()
    torn_tail: tuple[int, ...] = ()
    kill_after_accept: tuple[int, ...] = ()
    lease_steal: tuple[int, ...] = ()
    trip_dir: str | None = None

    def __post_init__(self) -> None:
        for kind in SERVICE_FAULT_KINDS:
            object.__setattr__(self, kind, tuple(sorted(getattr(self, kind))))

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, **kwargs) -> "ServiceFaultPlan":
        """Parse ``"disk_full@0,kill_after_accept@1"`` into a plan."""
        sets: dict[str, list[int]] = {kind: [] for kind in SERVICE_FAULT_KINDS}
        for term in filter(None, (t.strip() for t in spec.split(","))):
            kind, sep, ordinal = term.partition("@")
            if not sep or kind not in sets:
                raise ValueError(
                    "bad service fault term %r (expected <kind>@<ordinal> "
                    "with kind in %s)" % (term, "/".join(SERVICE_FAULT_KINDS))
                )
            sets[kind].append(int(ordinal))
        return cls(**{k: tuple(v) for k, v in sets.items()}, **kwargs)

    def to_spec(self) -> str:
        """Inverse of :meth:`from_spec`."""
        return ",".join(
            "%s@%d" % (kind, ordinal)
            for kind in SERVICE_FAULT_KINDS
            for ordinal in getattr(self, kind)
        )

    # ------------------------------------------------------------------
    def arm(self, kind: str, ordinal: int) -> bool:
        """Whether the (kind, ordinal) fault should fire *now* (one-shot)."""
        if ordinal not in getattr(self, kind):
            return False
        return _trip_once(self.trip_dir, "%s-%d" % (kind, ordinal))

    def fired(self, kind: str, ordinal: int) -> bool:
        """Whether a one-shot fault already fired (testing/CI helper)."""
        if self.trip_dir is None:
            return False
        return (
            Path(self.trip_dir) / ("%s-%d.tripped" % (kind, ordinal))
        ).exists()


