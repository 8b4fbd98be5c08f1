"""Sweep-service engine: durable queue, leases, dedupe, worker pool.

The long-running half of ``repro serve`` (ROADMAP item 1's job queue +
dedupe).  A :class:`SweepService` owns one ledger root and a pool of
supervised worker *threads*; each ``POST /sweeps`` submission becomes a
:class:`RunHandle` journaling the exact artifacts a CLI sweep would —
a :class:`~repro.runtime.ledger.RunLedger` with the same ``run`` /
``point`` / ``finish`` records, plus a span sidecar timeline of the
points in flight — so the observability surface is *artifact-backed*:
``GET /sweeps/<id>`` is :func:`~repro.runtime.status.load_run_status`
verbatim, SSE is a :class:`~repro.telemetry.tail.JsonlTailer` over the
sidecar, and killing the daemon loses nothing a restarted ``repro
status`` can't still see.

Crash safety and multi-host execution
-------------------------------------
Three mechanisms make the service survive anything short of losing the
disk:

* **Durable accept journal** — every submission is fsync'd to the
  :class:`~repro.service.journal.SubmissionJournal` *before* the run
  handle exists; :meth:`SweepService.start` replays the journal and
  reconciles each pending run against its ledger (points the ledger
  settled, failed ones too, are adopted silently; unfinished points
  re-enqueue), so ``kill -9`` + restart resumes every accepted run
  with zero client action and a final status indistinguishable from an
  uninterrupted run.
* **Point leases** — workers claim each point key through the
  :class:`~repro.service.lease.LeaseManager` before executing, so any
  number of ``repro serve`` processes sharing the ledger root (same or
  different hosts on shared storage) partition the work; stale leases
  (holder died) are taken over with a bumped epoch, and a holder whose
  lease was stolen detects it on heartbeat and abandons the point
  instead of double-writing.  Cooperating processes discover each
  other's submissions by tailing the shared journal and adopt each
  other's completions through :meth:`RunLedger.refresh`.
* **Admission control** — the job queue is bounded; overflow raises
  :class:`QueueFull` (HTTP 429 + ``Retry-After``), and per-sweep
  ``deadline`` specs fail still-unsettled points as
  ``deadline_exceeded`` instead of occupying the queue forever.

Dedupe is content-addressed: work is enqueued per
:func:`~repro.runtime.ledger.point_key`, so a point already completed
by any earlier submission answers instantly from the result cache
(journaled as ``restored=True``), and a point in flight for another run
is subscribed to, not re-executed.  Resubmitting a spec under its
existing run id is idempotent: the same run id is returned as long as
the spec digest matches.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import replace
from functools import partial
from pathlib import Path

from ..runtime.executor import POINT_TIMEOUT_KIND, execute_point
from ..runtime.faults import ServiceFaultPlan
from ..runtime.ledger import (
    RunJournal,
    RunLedger,
    default_ledger_root,
    new_run_id,
    point_key,
    result_from_record,
)
from ..runtime.points import PointError, PointResult, SweepPoint
from ..runtime.sweep import RetryPolicy, run_attempts
from ..runtime.trace_cache import TraceCache
from ..system.config import SystemConfig
from ..telemetry import spans as _spans
from ..telemetry.tail import JsonlTailer
from .journal import SubmissionJournal, spec_digest
from .lease import DEFAULT_TTL, LeaseManager

__all__ = [
    "Job",
    "QueueFull",
    "RunHandle",
    "SweepService",
    "parse_spec",
    "parse_retry",
    "DEADLINE_KIND",
]

#: Job lifecycle states.
QUEUED, RUNNING, DONE = "queued", "running", "done"

#: Sidecar (under the ledger root) journaling service-level spans:
#: ``service.start`` instants and the ``service.shutdown`` drain span.
SERVICE_SIDECAR = "service.spans.jsonl"

#: Error kind recorded for points failed by a sweep deadline.
DEADLINE_KIND = "deadline_exceeded"

#: Default bound on the job queue (``max_queue``).
DEFAULT_MAX_QUEUE = 256


class QueueFull(RuntimeError):
    """Admission refused: the job queue is at its bound.

    Carries the queue depth and a coarse ``retry_after`` estimate (queue
    depth x mean execution time / workers, clamped to [1, 60] seconds)
    that the HTTP layer forwards as a 429 ``Retry-After`` header.
    """

    def __init__(self, depth: int, retry_after: int):
        super().__init__(
            "job queue full (%d queued); retry in ~%ds" % (depth, retry_after)
        )
        self.depth = depth
        self.retry_after = retry_after


def parse_spec(spec: dict) -> tuple[list[SweepPoint], dict]:
    """Validate one ``POST /sweeps`` body into points + options.

    The spec mirrors ``repro sweep``'s flags field-for-field (the CLI's
    ``--workloads`` list is the spec's ``workloads`` key, and so on),
    with the same defaults, so a sweep can move between the CLI and the
    service by serializing its arguments; ``repro sweep`` builds its
    points and :class:`~repro.runtime.sweep.RetryPolicy` here too.
    Raises :class:`ValueError` with an operator-readable message on any
    unknown field or value — the HTTP layer maps that to a 400, the CLI
    to exit status 2.

    ``timeout`` arms each point's watchdog, which fires on the service's
    worker threads as it does in a CLI sweep.  The spec selects no
    replay path: :class:`~repro.system.machine.Machine` decides that.
    """
    from ..droplet.composite import PREFETCH_CONFIG_NAMES
    from ..graph.generators import PAPER_DATASET_NAMES
    from ..workloads.registry import PAPER_WORKLOAD_ORDER

    if not isinstance(spec, dict):
        raise ValueError("sweep spec must be a JSON object")
    known = {
        "workloads", "datasets", "setups", "max_refs", "scale_shift",
        "timeout", "retries", "backoff", "run_id", "deadline", "points",
    }
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ValueError(
            "unknown spec field(s): %s (known: %s)"
            % (", ".join(unknown), ", ".join(sorted(known)))
        )

    def _names(field: str, default: list, allowed) -> list:
        values = spec.get(field, default)
        if isinstance(values, str):
            values = [values]
        if not isinstance(values, list) or not values:
            raise ValueError("%r must be a non-empty list" % field)
        values = [str(v).upper() if field == "workloads" else str(v) for v in values]
        bad = sorted(set(values) - set(allowed))
        if bad:
            raise ValueError(
                "unknown %s: %s (choices: %s)"
                % (field, ", ".join(bad), ", ".join(allowed))
            )
        return values

    workloads = _names("workloads", list(PAPER_WORKLOAD_ORDER), PAPER_WORKLOAD_ORDER)
    datasets = _names("datasets", list(PAPER_DATASET_NAMES), PAPER_DATASET_NAMES)
    setups = _names(
        "setups",
        ["none", "stream", "streamMPP1", "droplet"],
        PREFETCH_CONFIG_NAMES,
    )
    try:
        max_refs = int(spec.get("max_refs", 150_000))
        scale_shift = int(spec.get("scale_shift", 0))
    except (TypeError, ValueError):
        raise ValueError("max_refs/scale_shift must be integers") from None
    if max_refs <= 0:
        raise ValueError("max_refs must be positive")
    options = parse_retry(spec)
    run_id = parse_run_id(spec)

    if "points" in spec:
        # Explicit point list (the `repro pareto` sharding path): each
        # entry carries its own machine knobs instead of a cross-product.
        overlap = sorted(
            k for k in ("workloads", "datasets", "setups") if k in spec
        )
        if overlap:
            raise ValueError(
                "'points' cannot be combined with %s" % ", ".join(overlap)
            )
        entries = spec["points"]
        if not isinstance(entries, list) or not entries:
            raise ValueError("'points' must be a non-empty list of objects")
        points = [
            _point_from_dict(i, entry, max_refs, scale_shift)
            for i, entry in enumerate(entries)
        ]
    else:
        points = [
            SweepPoint(
                workload=workload,
                dataset=dataset,
                setup=setup,
                max_refs=max_refs,
                scale_shift=scale_shift,
            )
            for workload in workloads
            for dataset in datasets
            for setup in dict.fromkeys(["none", *setups])
        ]
    for point in points:
        if point.max_refs <= 0:
            raise ValueError("point max_refs must be positive")
    return points, dict(options, run_id=run_id)


def parse_run_id(spec: dict) -> str | None:
    """A spec's ``run_id``, or None; ``repro pareto`` checks its id here too.

    Raises :class:`ValueError` unless the id is a non-empty string that
    names a file in the ledger root (no path separator).
    """
    run_id = spec.get("run_id")
    if run_id is not None and (
        not isinstance(run_id, str) or not run_id or any(c in run_id for c in "/\\")
    ):
        raise ValueError("run_id must be a non-empty path-safe string")
    return run_id


def parse_retry(spec: dict) -> dict:
    """Validate a spec's ``retries``/``timeout``/``backoff``/``deadline``.

    Returns the ``retry`` (:class:`~repro.runtime.sweep.RetryPolicy`),
    ``timeout`` and ``deadline`` options of :func:`parse_spec`, which
    calls it; ``repro pareto`` checks its retry flags here too.  Raises
    :class:`ValueError` on a non-number, negative ``retries`` or a
    ``timeout``/``deadline`` that is not positive.
    """
    try:
        retries = int(spec.get("retries", 2))
        backoff = float(spec.get("backoff", 0.25))
        timeout = spec.get("timeout")
        timeout = None if timeout is None else float(timeout)
        deadline = spec.get("deadline")
        deadline = None if deadline is None else float(deadline)
    except (TypeError, ValueError):
        raise ValueError(
            "retries must be an integer; timeout/backoff/deadline must be numbers"
        ) from None
    if retries < 0:
        raise ValueError("retries must not be negative")
    for name, seconds in (("timeout", timeout), ("deadline", deadline)):
        if seconds is not None and seconds <= 0:
            raise ValueError("%s must be a positive number of seconds" % name)
    return {
        "retry": RetryPolicy(
            max_attempts=retries + 1, timeout=timeout, backoff=backoff
        ),
        "timeout": timeout,
        "deadline": deadline,
    }


def _point_from_dict(index: int, entry, max_refs: int, scale_shift: int) -> SweepPoint:
    """Validate one explicit ``points`` entry into a :class:`SweepPoint`.

    Spec-level ``max_refs``/``scale_shift`` are the per-entry defaults,
    so shards that vary only machine knobs stay terse.  Raises :class:`ValueError` with the entry index on any
    malformed field (the HTTP layer maps it to a 400).
    """
    from ..droplet.composite import EXTENDED_CONFIG_NAMES
    from ..graph.generators import DATASET_NAMES
    from ..workloads.registry import PAPER_WORKLOAD_ORDER

    def bad(message: str):
        return ValueError("points[%d]: %s" % (index, message))

    if not isinstance(entry, dict):
        raise bad("must be an object")
    known = {
        "workload", "dataset", "setup", "max_refs", "scale_shift", "seed",
        "multi_property", "llc_multiplier", "l2_config", "rob_entries",
        "mrb_entries",
    }
    unknown = sorted(set(entry) - known)
    if unknown:
        raise bad("unknown field(s): %s" % ", ".join(unknown))
    workload = str(entry.get("workload", "")).upper()
    if workload not in PAPER_WORKLOAD_ORDER:
        raise bad("unknown workload %r" % entry.get("workload"))
    dataset = str(entry.get("dataset", ""))
    if dataset not in DATASET_NAMES:
        raise bad("unknown dataset %r" % entry.get("dataset"))
    setup = str(entry.get("setup", "none"))
    if setup not in EXTENDED_CONFIG_NAMES:
        raise bad("unknown setup %r" % setup)
    try:
        point_refs = int(entry.get("max_refs", max_refs))
        point_shift = int(entry.get("scale_shift", scale_shift))
        seed = entry.get("seed")
        seed = None if seed is None else int(seed)
        llc = entry.get("llc_multiplier")
        llc = None if llc is None else int(llc)
        rob = entry.get("rob_entries")
        rob = None if rob is None else int(rob)
        # Names the point only; see ``SweepPoint.mrb_entries``.
        mrb = entry.get("mrb_entries")
        mrb = None if mrb is None else int(mrb)
    except (TypeError, ValueError):
        raise bad("numeric fields must be integers or null") from None
    if point_refs <= 0:
        raise bad("max_refs must be positive")
    if (rob is not None and rob <= 0) or (mrb is not None and mrb <= 0):
        raise bad("rob_entries/mrb_entries must be positive")
    l2_config = entry.get("l2_config")
    if l2_config is not None:
        if not isinstance(l2_config, (list, tuple)) or len(l2_config) != 2:
            raise bad("l2_config must be [multiplier|null, associativity]")
        mult, assoc = l2_config
        try:
            mult = None if mult is None else int(mult)
            assoc = int(assoc)
        except (TypeError, ValueError):
            raise bad("l2_config values must be integers or null") from None
        if (mult is not None and mult <= 0) or assoc <= 0:
            raise bad("l2_config values must be positive")
        l2_config = (mult, assoc)
    return SweepPoint(
        workload=workload,
        dataset=dataset,
        setup=setup,
        max_refs=point_refs,
        scale_shift=point_shift,
        seed=seed,
        multi_property=bool(entry.get("multi_property", False)),
        llc_multiplier=llc,
        l2_config=l2_config,
        rob_entries=rob,
        mrb_entries=mrb,
    )


class Job:
    """One unit of queued work: a unique point key plus its subscribers.

    Subscribers are ``{"handle": RunHandle, "index": int, "span": Span}``
    entries — every run waiting on this execution; each gets its own
    ``point`` begin span when the job starts (or when it subscribes to
    an already-running job) and settles when the one result lands.

    ``not_before`` defers a job whose lease is held by another process
    (monotonic clock); ``stolen`` flags a running job whose lease was
    taken over mid-execution — its result is discarded, never written.
    """

    __slots__ = ("key", "point", "retry", "state", "subscribers", "attempt",
                 "not_before", "lease", "stolen")

    def __init__(self, key: str, point: SweepPoint, retry: RetryPolicy):
        self.key = key
        self.point = point
        self.retry = retry
        self.state = QUEUED
        self.subscribers: list[dict] = []
        self.attempt = 1
        self.not_before = 0.0
        self.lease = None
        self.stolen = False


class RunHandle:
    """One submission's artifacts: ledger, span sidecar, settle tracking.

    Journals through the same :class:`~repro.runtime.ledger.RunJournal`
    a CLI sweep uses (``mode="service"``), so ``repro status`` (and the
    HTTP status endpoint, which *is* ``repro status``) reconstructs the
    run with no service-specific code path.  The handle adds only what
    is the daemon's: the single-writer election, crash-recovery
    adoption, the deadline and ``on_finish``.

    With ``resume=True`` (journal replay after a crash, or adopting a
    peer's submission) the handle first folds its ledger: every point
    the ledger already settled, ok or failed, is settled silently — no
    new ledger writes, tallies recovered from the records — so a
    recovered run's ledger stays *identical* to an uninterrupted run's.
    The shared-once ``run`` and ``finish`` records are election-guarded
    through :meth:`LeaseManager.once` (markers ``meta-<run>`` and
    ``finish-<run>``), so exactly one process across all crashes and
    peers writes each.
    """

    def __init__(
        self,
        run_id: str,
        root: Path,
        points: list[SweepPoint],
        workers: int,
        leases: LeaseManager | None = None,
        spec_digest: str | None = None,
        deadline_at: float | None = None,
        resume: bool = False,
        on_finish=None,
    ):
        self.run_id = run_id
        self.points = points
        self.leases = leases
        self.spec_digest = spec_digest
        self.deadline_at = deadline_at
        self.on_finish = on_finish
        self.ledger = RunLedger(run_id, root=root)
        self.ledger.open()
        self.tracer = _spans.SpanRecorder(
            sidecar=_spans.sidecar_path(self.ledger.path)
        )
        self.journal = RunJournal(
            points, workers, "service", ledger=self.ledger, tracer=self.tracer
        )
        #: Settled results by point index (the journal's own map).
        self.settled = self.journal.settled
        self.finished = False
        # The ``run`` record's marker is named ``meta`` for the sidecar
        # copy it once guarded too; existing roots hold markers by
        # that name, so it stays.
        if self._once("meta"):
            self.journal.start()
        if resume:
            self._rebuild()

    # ------------------------------------------------------------------
    def _once(self, what: str) -> bool:
        """Single-writer election for a shared record of this run."""
        if self.leases is None:
            return True
        return self.leases.once("%s-%s" % (what, self.run_id))

    def _rebuild(self) -> None:
        """Adopt what this run's ledger already holds (crash recovery).

        Every index whose key has a ledger record settles silently from
        the latest one, ok or failed, and a ``finish`` record marks the
        run finished.
        """
        self.finished = self.ledger.finished
        for index, point in enumerate(self.points):
            record = self.ledger.settled_record(point)
            if record is not None:
                self.adopt(index, point, record)

    # ------------------------------------------------------------------
    def settle(self, index: int, point: SweepPoint, result: PointResult,
               restored: bool) -> None:
        """Journal one settled point's ledger record."""
        if index in self.settled:
            return  # already adopted/settled (recovery or deadline race)
        self.journal.settle(index, point, result, restored=restored)
        self._finish_if_settled()

    def adopt(self, index: int, point: SweepPoint, record: dict) -> None:
        """Settle a point from a record already in this run's ledger.

        The process that settled it (a cooperating peer, or this run
        before a crash) already wrote the ledger record; adopting only
        updates in-memory tallies and completion tracking so this
        process's view converges.
        """
        if index in self.settled:
            return
        data = record.get("data", {})
        self.journal.adopt(
            index,
            result_from_record(point, record),
            restored=bool(data.get("restored")),
            timeouts=int(data.get("timeouts") or 0),
        )
        self._finish_if_settled()

    def _finish_if_settled(self) -> None:
        if len(self.settled) < len(self.points):
            return
        self.finished = True
        if self._once("finish"):
            self.journal.finish()
        if self.on_finish is not None:
            self.on_finish(self)


class SweepService:
    """The daemon's core: submissions in, deduped executions out.

    All mutable state is guarded by one condition variable; workers are
    daemon threads pulling :class:`Job` objects off a FIFO deque, each
    execution gated by a point lease.  A housekeeping thread heartbeats
    held leases, tails the shared submission journal for peer
    submissions, and enforces sweep deadlines.  The pool is supervised —
    :meth:`healthy` reports whether every thread is still alive — and
    :meth:`drain` performs the graceful shutdown: stop accepting, let
    the queue empty, join the threads, and journal a
    ``service.shutdown`` span into the service sidecar.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        workers: int = 2,
        trace_cache: TraceCache | None = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        lease_ttl: float = DEFAULT_TTL,
        faults: ServiceFaultPlan | None = None,
    ):
        self.root = Path(root) if root is not None else default_ledger_root()
        self.workers = max(1, int(workers))
        self.cache = trace_cache if trace_cache is not None else TraceCache()
        self.max_queue = max(1, int(max_queue))
        self.faults = faults
        self.journal = SubmissionJournal(self.root, faults=faults)
        self.leases = LeaseManager(self.root, ttl=lease_ttl)
        self._journal_tail = JsonlTailer(self.journal.path)
        self._memo: dict = {}
        self._config = SystemConfig.scaled_baseline()
        self._cv = threading.Condition()
        self._queue: deque[Job] = deque()
        self._jobs: dict[str, Job] = {}  # in-flight, by point key
        self._results: dict[str, PointResult] = {}  # ok results, by key
        self._runs: dict[str, RunHandle] = {}
        self._busy: list[bool] = [False] * self.workers
        self._threads: list[threading.Thread] = []
        self._stopping = False
        self._lease_seq = 0  # acquisition ordinal (lease_steal faults)
        self._exec_time = 0.0
        self.started_at = time.time()
        self.counters = {
            "submissions": 0,
            "points_submitted": 0,
            "points_executed": 0,
            "points_completed": 0,
            "points_failed": 0,
            "dedup_hits": 0,
            "cached_answers": 0,
            "inflight_joins": 0,
            "idempotent_hits": 0,
            "retries": 0,
            "timeouts": 0,
            "quarantined_entries": 0,
            "restored_points": 0,
            "trace_cache_hits": 0,
            "trace_cache_misses": 0,
            "rejected_429": 0,
            "journal_replays": 0,
            "journal_adoptions": 0,
            "lease_takeovers": 0,
            "leases_lost": 0,
            "remote_settled": 0,
            "deadline_exceeded": 0,
        }
        self.tracer = _spans.SpanRecorder(sidecar=self.root / SERVICE_SIDECAR)

    # ------------------------------------------------------------------
    def start(self) -> "SweepService":
        """Replay the journal, then spawn the pool (idempotent)."""
        with self._cv:
            if self._threads:
                return self
            replayed = self._recover_locked()
            for slot in range(self.workers):
                thread = threading.Thread(
                    target=self._worker, args=(slot,),
                    name="sweep-worker-%d" % slot, daemon=True,
                )
                self._threads.append(thread)
                thread.start()
            keeper = threading.Thread(
                target=self._housekeeper, name="sweep-housekeeper", daemon=True,
            )
            self._threads.append(keeper)
            keeper.start()
        self.tracer.event(
            "service.start", workers=self.workers, root=str(self.root),
            replayed=replayed,
        )
        return self

    def healthy(self) -> bool:
        """Whether the whole pool is alive (and the service accepting)."""
        with self._cv:
            return (
                not self._stopping
                and bool(self._threads)
                and all(t.is_alive() for t in self._threads)
            )

    # ------------------------------------------------------------------
    def _recover_locked(self) -> int:
        """Replay the submission journal: re-open every pending run.

        Settled points are adopted from the existing artifacts; the
        remainder re-enqueues.  Returns the number of runs replayed.
        """
        entries, _done = self.journal.replay()
        replayed = 0
        for entry in entries:
            if entry.done or entry.run_id in self._runs:
                continue
            try:
                points, options = parse_spec(entry.spec)
            except ValueError as exc:
                self.tracer.event(
                    "service.replay_error", run_id=entry.run_id,
                    error=str(exc),
                )
                continue
            handle = self._open_run_locked(
                entry.run_id, entry.spec, points, options,
                submitted_at=entry.submitted_at or None, resume=True,
            )
            replayed += 1
            self.counters["journal_replays"] += 1
            self.counters["submissions"] += 1
            self.counters["points_submitted"] += len(points)
            for index, point in enumerate(points):
                if index in handle.settled:
                    # Seed the shared result cache with recovered points
                    # so later submissions dedupe against them.
                    recovered = handle.settled[index]
                    if recovered.ok:
                        self._results.setdefault(point_key(point), recovered)
                    continue
                self._place(handle, index, point, options)
        if replayed:
            self._cv.notify_all()
        # The tailer must not re-deliver what replay just consumed.
        self._journal_tail.poll()
        return replayed

    def _open_run_locked(
        self,
        run_id: str,
        spec: dict,
        points: list[SweepPoint],
        options: dict,
        submitted_at: float | None = None,
        resume: bool = False,
    ) -> RunHandle:
        deadline = options.get("deadline")
        deadline_at = None
        if deadline is not None:
            deadline_at = (submitted_at or time.time()) + deadline
        handle = RunHandle(
            run_id, self.root, points, workers=self.workers,
            leases=self.leases, spec_digest=spec_digest(spec),
            deadline_at=deadline_at, resume=resume,
            on_finish=self._run_completed,
        )
        self._runs[run_id] = handle
        return handle

    def _run_completed(self, handle: RunHandle) -> None:
        """Journal a run's completion exactly once across processes."""
        if self.leases.once("jdone-%s" % handle.run_id):
            try:
                self.journal.done(handle.run_id)
            except OSError:
                pass  # journaling completion is an optimization only

    def _retry_after_locked(self) -> int:
        executed = self.counters["points_executed"]
        mean = (self._exec_time / executed) if executed else 1.0
        estimate = len(self._queue) * mean / self.workers
        return max(1, min(60, int(estimate) + 1))

    # ------------------------------------------------------------------
    def submit(self, spec: dict) -> str:
        """Accept one sweep spec; returns its run id after it is durable.

        Admission order is the crash-safety contract: parse (400s cost
        nothing), admission check (:class:`QueueFull` → 429), idempotency
        check (same run id + same spec digest returns the existing run),
        then the fsync'd journal append — only after the submission is
        durable does the run handle exist.  A daemon killed between
        accept and enqueue replays the run from the journal on restart.
        """
        points, options = parse_spec(spec)
        run_id = options["run_id"] or new_run_id()
        digest = spec_digest(spec)
        with self._cv:
            if self._stopping:
                raise RuntimeError("service is draining; not accepting sweeps")
            existing = self._runs.get(run_id)
            if existing is not None:
                if existing.spec_digest == digest:
                    self.counters["idempotent_hits"] += 1
                    return run_id
                raise ValueError(
                    "run id %r is already active with a different spec"
                    % run_id
                )
            if len(self._queue) >= self.max_queue:
                self.counters["rejected_429"] += 1
                raise QueueFull(
                    depth=len(self._queue),
                    retry_after=self._retry_after_locked(),
                )
            journal_spec = dict(spec)
            journal_spec["run_id"] = run_id
            self.journal.submit(run_id, journal_spec)
            if self.faults is not None and self.faults.arm(
                "kill_after_accept", self.journal.submits - 1
            ):
                os._exit(1)  # accepted-but-not-enqueued crash window
            handle = self._open_run_locked(run_id, journal_spec, points, options)
            self.counters["submissions"] += 1
            self.counters["points_submitted"] += len(points)
            for index, point in enumerate(points):
                if index in handle.settled:
                    continue
                self._place(handle, index, point, options)
            self._cv.notify_all()
        return run_id

    def _place(self, handle: RunHandle, index: int, point: SweepPoint,
               options: dict) -> None:
        """Route one point: instant answer, subscription, or fresh job."""
        key = point_key(point)
        restored = handle.ledger.restore(point)
        if restored is not None:
            # Resubmission under an explicit prior run id: the run's own
            # ledger already has it (classic --resume semantics).
            self.counters["dedup_hits"] += 1
            self.counters["restored_points"] += 1
            handle.settle(index, point, restored, restored=True)
            return
        cached = self._results.get(key)
        if cached is not None:
            self.counters["dedup_hits"] += 1
            self.counters["cached_answers"] += 1
            self.counters["restored_points"] += 1
            handle.settle(
                index, point,
                replace(cached, point=point, restored=True),
                restored=True,
            )
            return
        job = self._jobs.get(key)
        if job is not None and job.state != DONE:
            self.counters["dedup_hits"] += 1
            self.counters["inflight_joins"] += 1
            entry = {"handle": handle, "index": index, "span": None}
            if job.state == RUNNING:
                entry["span"] = handle.tracer.start(
                    "point", index=index, label=point.label,
                    attempt=job.attempt,
                )
            job.subscribers.append(entry)
            return
        job = Job(key, point, retry=options["retry"])
        job.subscribers.append({"handle": handle, "index": index, "span": None})
        self._jobs[key] = job
        self._queue.append(job)

    # ------------------------------------------------------------------
    def _next_ready_locked(self) -> Job | None:
        """Pop the first queued job whose deferral has elapsed."""
        now = time.monotonic()
        for position, job in enumerate(self._queue):
            if job.not_before <= now:
                del self._queue[position]
                return job
        return None

    def _defer_locked(self, job: Job, delay: float | None = None) -> None:
        """Requeue a job whose lease is (still) held elsewhere."""
        job.state = QUEUED
        job.lease = None
        job.stolen = False
        if delay is None:
            delay = min(1.0, max(0.1, self.leases.ttl / 4.0))
        job.not_before = time.monotonic() + delay
        self._queue.append(job)

    def _worker(self, slot: int) -> None:
        while True:
            with self._cv:
                while True:
                    if self._stopping and not self._queue:
                        return
                    job = self._next_ready_locked()
                    if job is not None:
                        break
                    self._cv.wait(timeout=0.2)
                job.state = RUNNING
                self._busy[slot] = True
            try:
                if not self._claim(job):
                    continue
                try:
                    result = self._execute(job)
                except BaseException as exc:  # defensive: workers never die silently
                    result = PointResult(
                        point=job.point, error=PointError.from_exception(exc)
                    )
                self._deliver(job, result)
            finally:
                with self._cv:
                    self._busy[slot] = False
                    self._cv.notify_all()

    def _claim(self, job: Job) -> bool:
        """Acquire the job's lease; route around foreign/settled leases.

        Returns ``True`` with the lease attached when this process may
        execute the point.  A lease settled by a peer adopts the remote
        result; a live foreign lease defers the job.
        """
        lease = self.leases.acquire(job.key)
        if lease is None:
            record = self.leases.peek(job.key)
            with self._cv:
                if record.get("state") in ("done", "failed"):
                    if not self._adopt_remote_locked(job, record):
                        self._defer_locked(job, delay=0.25)
                else:
                    self._defer_locked(job)
            return False
        with self._cv:
            job.lease = lease
            job.stolen = False
            if lease.takeover:
                self.counters["lease_takeovers"] += 1
                self.tracer.event(
                    "service.lease_takeover", key=job.key,
                    label=job.point.label, epoch=lease.epoch,
                )
            ordinal = self._lease_seq
            self._lease_seq += 1
            for entry in job.subscribers:
                if entry.get("span") is None:
                    entry["span"] = entry["handle"].tracer.start(
                        "point", index=entry["index"],
                        label=job.point.label, attempt=job.attempt,
                    )
        if self.faults is not None and self.faults.arm("lease_steal", ordinal):
            self.leases.steal(job.key)
        return True

    def _deliver(self, job: Job, result: PointResult) -> None:
        """Publish one finished execution — unless the lease was stolen."""
        stolen = job.stolen or not self.leases.heartbeat(job.lease)
        if stolen:
            with self._cv:
                self.counters["leases_lost"] += 1
                for entry in job.subscribers:
                    span = entry.pop("span", None) or None
                    entry["span"] = None
                    if span is not None:
                        entry["handle"].tracer.finish(span, status="superseded")
                self._defer_locked(job)
            return
        with self._cv:
            source = (
                job.subscribers[0]["handle"].run_id if job.subscribers else None
            )
        self.leases.release(
            job.lease,
            "done" if result.ok else "failed",
            error_kind=None if result.ok else result.error.kind,
            extra={"run": source},
        )
        with self._cv:
            self._settle_job(job, result)

    def _adopt_remote_locked(self, job: Job, record: dict) -> bool:
        """Fold a peer's settled lease into every subscribed run.

        Returns ``False`` when the peer's result is not visible on disk
        yet (its ledger append may still be in flight) — the job defers
        and retries.  Runs whose ledger the peer already wrote, ok or
        failed, adopt that record silently; other runs get the result
        settled from the peer's source-run ledger, exactly like a cached
        answer, or a failure settled under the peer's error kind.
        """
        remote: PointResult | None = None
        failed = record.get("state") == "failed"
        for entry in list(job.subscribers):
            handle = entry["handle"]
            index = entry["index"]
            if index in handle.settled:
                continue
            handle.ledger.refresh()
            own = handle.ledger.settled_record(job.point)
            if own is not None and (own.get("ok", True) or failed):
                handle.adopt(index, job.point, own)
                continue
            if failed and record.get("run") == handle.run_id:
                return False  # this run's own failure is still journaling
            if failed:
                error = PointError(
                    kind=str(record.get("error_kind") or "RemoteFailure"),
                    message="point %s failed on %s"
                    % (job.point.label, record.get("owner", "peer")),
                )
                handle.settle(
                    index, job.point,
                    PointResult(point=job.point, error=error),
                    restored=False,
                )
                continue
            if remote is None:
                remote = self._remote_result(job, record)
            if remote is None:
                return False  # not visible yet: defer and re-poll
            self._results.setdefault(job.key, remote)
            self.counters["restored_points"] += 1
            handle.settle(
                index, job.point,
                replace(remote, point=job.point, restored=True),
                restored=True,
            )
        job.state = DONE
        self._jobs.pop(job.key, None)
        self.counters["remote_settled"] += 1
        return True

    def _remote_result(self, job: Job, record: dict) -> PointResult | None:
        """Load a peer-executed result via its source run's ledger."""
        source = record.get("run")
        if not isinstance(source, str) or not source:
            return None
        try:
            ledger = RunLedger(source, root=self.root)
        except ValueError:
            return None
        ledger.refresh()
        return ledger.restore(job.point)

    # ------------------------------------------------------------------
    def _execute(self, job: Job) -> PointResult:
        """Run one job through the shared attempt loop."""
        return run_attempts(
            partial(self._attempt, job), job.retry,
            partial(self._attempt_failed, job),
        )

    def _attempt(self, job: Job, attempt: int) -> PointResult:
        job.attempt = attempt
        return execute_point(
            job.point, self._config, self.cache, self._memo,
            return_full=False, timeout=job.retry.timeout, attempt=attempt,
        )

    def _attempt_failed(self, job: Job, result: PointResult, attempt: int,
                        retrying: bool) -> None:
        """Count a failed attempt and journal it in every subscribed run."""
        with self._cv:
            if result.error.kind == POINT_TIMEOUT_KIND:
                self.counters["timeouts"] += 1
            if retrying:
                self.counters["retries"] += 1
            for entry in job.subscribers:
                entry["handle"].journal.attempt_failed(
                    entry["index"], result, attempt, retrying
                )

    def _settle_job(self, job: Job, result: PointResult) -> None:
        """Deliver one finished execution to every subscribed run."""
        job.state = DONE
        self._jobs.pop(job.key, None)
        self.counters["points_executed"] += 1
        self._exec_time += result.wall_time
        if result.ok:
            self.counters["points_completed"] += 1
            self._results[job.key] = result
        else:
            self.counters["points_failed"] += 1
        if result.trace_cache_hit is True:
            self.counters["trace_cache_hits"] += 1
        elif result.trace_cache_hit is False:
            self.counters["trace_cache_misses"] += 1
        self.counters["quarantined_entries"] += result.cache_quarantined
        for entry in job.subscribers:
            span = entry.get("span")
            handle = entry["handle"]
            if span is not None:
                span.set(
                    status="ok" if result.ok else "error",
                    cache_hit=result.trace_cache_hit,
                )
                if not result.ok:
                    span.set(error_kind=result.error.kind)
                handle.tracer.finish(span)
            handle.settle(entry["index"], job.point, result, restored=False)

    # ------------------------------------------------------------------
    def _housekeeper(self) -> None:
        """Heartbeats, peer-journal tailing, deadlines, queue pruning."""
        interval = min(1.0, max(0.1, self.leases.ttl / 3.0))
        while True:
            with self._cv:
                if self._stopping:
                    return
                held = [
                    job for job in self._jobs.values()
                    if job.state == RUNNING and job.lease is not None
                ]
            for job in held:
                lease = job.lease
                if lease is not None and not self.leases.heartbeat(lease):
                    job.stolen = True
            self._tail_journal()
            self._enforce_deadlines()
            time.sleep(interval)

    def _tail_journal(self) -> None:
        """Adopt peer submissions appended to the shared journal."""
        for record in self._journal_tail.poll():
            if record.get("kind") != "submit":
                continue
            run_id = record.get("run_id")
            spec = record.get("spec")
            with self._cv:
                if (
                    not isinstance(run_id, str)
                    or not isinstance(spec, dict)
                    or run_id in self._runs
                    or self._stopping
                ):
                    continue
                try:
                    points, options = parse_spec(spec)
                except ValueError:
                    continue
                handle = self._open_run_locked(
                    run_id, spec, points, options,
                    submitted_at=record.get("ts"), resume=True,
                )
                self.counters["journal_adoptions"] += 1
                self.counters["submissions"] += 1
                self.counters["points_submitted"] += len(points)
                for index, point in enumerate(points):
                    if index in handle.settled:
                        continue
                    self._place(handle, index, point, options)
                self._cv.notify_all()

    def _enforce_deadlines(self) -> None:
        """Fail unsettled points of expired sweeps as ``deadline_exceeded``."""
        now = time.time()
        with self._cv:
            for handle in list(self._runs.values()):
                if (
                    handle.finished
                    or handle.deadline_at is None
                    or now < handle.deadline_at
                ):
                    continue
                for index, point in enumerate(handle.points):
                    if index in handle.settled:
                        continue
                    error = PointError(
                        kind=DEADLINE_KIND,
                        message="sweep %s exceeded its %.0fs deadline"
                        % (handle.run_id, handle.deadline_at - now + 0),
                    )
                    handle.settle(
                        index, point,
                        PointResult(point=point, error=error),
                        restored=False,
                    )
                    self.counters["deadline_exceeded"] += 1
            # Drop queued jobs whose subscribers have all been settled
            # out from under them (deadline, adoption).
            for key, job in list(self._jobs.items()):
                if job.state != QUEUED:
                    continue
                job.subscribers = [
                    entry for entry in job.subscribers
                    if entry["index"] not in entry["handle"].settled
                ]
                if not job.subscribers:
                    self._jobs.pop(key, None)
                    try:
                        self._queue.remove(job)
                    except ValueError:
                        pass

    # ------------------------------------------------------------------
    def run_ids(self) -> list[str]:
        with self._cv:
            return sorted(self._runs)

    def run_finished(self, run_id: str) -> bool | None:
        """Finished-flag of an in-service run; ``None`` if unknown here."""
        with self._cv:
            handle = self._runs.get(run_id)
            return None if handle is None else handle.finished

    def queue_depth(self) -> int:
        with self._cv:
            return len(self._queue)

    def busy_workers(self) -> list[bool]:
        with self._cv:
            return list(self._busy)

    def metric_samples(self) -> dict:
        """The ``/metrics`` sample set, ready for ``render_prom``.

        Service throughput/dedupe and resilience counters, crash-safety
        counters (journal replays, lease takeovers, 429 rejections) and
        live queue/pool gauges (one ``service_worker_busy`` series per
        worker).  Each value appears once, under ``service.*``.
        """
        counter_help = {
            "submissions": "Sweep submissions accepted.",
            "points_submitted": "Points across all submissions.",
            "points_executed": "Point executions performed by the pool.",
            "points_completed": "Point executions that succeeded.",
            "points_failed": "Point executions that failed terminally.",
            "dedup_hits": "Points answered without a fresh execution "
                          "(cached result, ledger restore, or in-flight join).",
            "cached_answers": "Points answered instantly from the result cache.",
            "inflight_joins": "Points subscribed to an already-running job.",
            "idempotent_hits": "Resubmissions answered with their existing run.",
            "retries": "Point retry attempts scheduled.",
            "timeouts": "Point watchdog timeouts observed.",
            "quarantined_entries": "Corrupt trace-cache entries quarantined "
                                   "and regenerated.",
            "restored_points": "Points journaled as restored.",
            "trace_cache_hits": "Trace-cache hits across executions.",
            "trace_cache_misses": "Trace-cache misses across executions.",
            "rejected_429": "Submissions refused by queue admission control.",
            "journal_replays": "Runs replayed from the submission journal "
                               "at startup.",
            "journal_adoptions": "Peer submissions adopted from the shared "
                                 "journal.",
            "lease_takeovers": "Stale leases taken over from dead workers.",
            "leases_lost": "Executions abandoned after a lease steal.",
            "remote_settled": "Jobs settled from a peer's completed lease.",
            "deadline_exceeded": "Points failed by a sweep deadline.",
        }
        with self._cv:
            samples: dict = {}
            for name, help_text in counter_help.items():
                samples["service.%s" % name] = {
                    "value": self.counters[name],
                    "type": "counter",
                    "help": help_text,
                }
            samples["service.queue_depth"] = {
                "value": len(self._queue),
                "type": "gauge",
                "help": "Jobs waiting for a worker.",
            }
            samples["service.queue_limit"] = {
                "value": self.max_queue,
                "type": "gauge",
                "help": "Admission-control bound on the job queue.",
            }
            # A worker marks a job RUNNING before ``_claim`` wins (or
            # defers on) its lease; only a held lease means executing.
            samples["service.inflight"] = {
                "value": sum(
                    1 for j in self._jobs.values()
                    if j.state == RUNNING and j.lease is not None
                ),
                "type": "gauge",
                "help": "Jobs currently executing.",
            }
            samples["service.runs_active"] = {
                "value": sum(1 for h in self._runs.values() if not h.finished),
                "type": "gauge",
                "help": "Submitted runs not yet finished.",
            }
            samples["service.workers"] = {
                "value": self.workers,
                "type": "gauge",
                "help": "Configured worker pool size.",
            }
            samples["service.uptime_seconds"] = {
                "value": time.time() - self.started_at,
                "type": "gauge",
                "help": "Seconds since the service started.",
            }
            for slot, busy in enumerate(self._busy):
                samples["service.worker_busy[%d]" % slot] = {
                    "name": "service.worker_busy",
                    "value": 1 if busy else 0,
                    "type": "gauge",
                    "help": "Per-worker busy state (1 = executing a job).",
                    "labels": {"worker": slot},
                }
        return samples

    # ------------------------------------------------------------------
    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: finish queued work, then stop the pool.

        Journals the drain as a ``service.shutdown`` span in the service
        sidecar (queue depth at entry, jobs drained, whether the join
        completed).  Returns ``True`` when every worker exited in time.
        """
        with self._cv:
            depth = len(self._queue)
            executed_before = self.counters["points_executed"]
            span = self.tracer.start(
                "service.shutdown", reason="drain", queue_depth=depth
            )
            self._stopping = True
            self._cv.notify_all()
            threads = list(self._threads)
        deadline = time.perf_counter() + timeout
        clean = True
        for thread in threads:
            thread.join(max(0.0, deadline - time.perf_counter()))
            clean = clean and not thread.is_alive()
        with self._cv:
            drained = self.counters["points_executed"] - executed_before
        self.tracer.finish(span, drained=drained, clean=clean)
        return clean
