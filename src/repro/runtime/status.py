"""Run-status reconstruction: what a sweep is doing (or did), per point.

The store seam of the scheduler/executor/store split (ROADMAP item 1):
:func:`load_run_status` rebuilds a :class:`RunStatus` for a live or
finished sweep purely from its on-disk artifacts, without touching the
sweep process.  ``repro status`` renders it; the sweep service serves
it over HTTP.

One durable record, one live view:

* **Run ledger** (``<run_id>.jsonl``) — the record.  Its latest ``run``
  record lists the points, workers and mode; each point's latest
  ``point`` record settles it as done, restored or failed; a ``finish``
  record after that ``run`` record marks the run finished and carries
  its metrics dict verbatim — so a finished run's status counters match
  its sweep report exactly.  A ledger journaled before ``run`` records
  existed lists its journaled points.
* **Span sidecar** (``<run_id>.spans.jsonl``) — the live view, holding
  no copy of the ledger's records and read only for points the ledger
  has not settled yet: an unmatched ``point`` begin means *running right
  now* (or a worker that died mid-point), and
  ``point.retry``/``point.timeout``/``pool.respawn`` instants add the
  in-flight resilience counters of an unfinished run.  A finished run's
  status never reads it, so rotating or deleting the sidecar changes
  nothing there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..telemetry import spans as _spans
from ..telemetry.tail import JsonlTailer, read_jsonl
from .ledger import default_ledger_root

__all__ = [
    "PointState",
    "RunStatus",
    "RunStatusBuilder",
    "load_run_status",
    "status_paths",
    "status_table_rows",
    "watch",
]

#: Point states, in display order.
POINT_STATES = ("done", "restored", "failed", "running", "retrying", "pending")

#: Resilience counters, named as in ``SweepMetrics.as_dict()``.
COUNTER_KEYS = (
    "retries",
    "timeouts",
    "recovered_workers",
    "quarantined_entries",
    "restored_points",
    "errors",
)


@dataclass
class PointState:
    """Observed state of one sweep point."""

    index: int
    label: str
    state: str = "pending"  # one of POINT_STATES
    attempts: int = 0
    cache_hit: bool | None = None
    wall_time: float | None = None
    error_kind: str | None = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "state": self.state,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "wall_time": self.wall_time,
            "error_kind": self.error_kind,
        }


@dataclass
class RunStatus:
    """Everything ``repro status`` knows about one run."""

    run_id: str
    ledger_path: Path
    sidecar_path: Path
    points: list[PointState] = field(default_factory=list)
    workers: int = 1
    mode: str = "serial"
    #: Resilience counters.  The finish metrics verbatim once the run
    #: finished; while it runs, summed from its settled point records
    #: plus the sidecar instants of its unsettled points.
    counters: dict = field(default_factory=dict)
    #: The final ``SweepMetrics.as_dict()`` when the run finished.
    metrics: dict | None = None
    finished: bool = False
    #: Whether any on-disk artifact for the run was found at all.
    found: bool = False

    # ------------------------------------------------------------------
    def count(self, state: str) -> int:
        return sum(1 for p in self.points if p.state == state)

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def completed(self) -> int:
        """Points settled one way or the other."""
        return sum(
            1 for p in self.points if p.state in ("done", "restored", "failed")
        )

    def eta_seconds(self) -> float | None:
        """Naive remaining-time estimate from completed-point rates.

        ``None`` until at least one executed point's duration is known
        (restored points carry the *original* run's duration and are
        excluded — they complete instantly on resume).
        """
        if self.finished:
            return 0.0
        durations = [
            p.wall_time
            for p in self.points
            if p.state in ("done", "failed") and p.wall_time
        ]
        remaining = self.total - self.completed
        if not durations or remaining <= 0:
            return 0.0 if remaining <= 0 else None
        mean = sum(durations) / len(durations)
        return remaining * mean / max(self.workers, 1)

    def as_dict(self) -> dict:
        """JSON-safe form (``repro status --json``)."""
        return {
            "run_id": self.run_id,
            "ledger": str(self.ledger_path),
            "spans": str(self.sidecar_path),
            "finished": self.finished,
            "workers": self.workers,
            "mode": self.mode,
            "total": self.total,
            "states": {s: self.count(s) for s in POINT_STATES},
            "eta_s": self.eta_seconds(),
            "counters": dict(self.counters),
            "metrics": self.metrics,
            "points": [p.as_dict() for p in self.points],
        }

    def to_text(self) -> str:
        """One-line headline for the human rendering."""
        states = ", ".join(
            "%d %s" % (self.count(s), s)
            for s in POINT_STATES
            if self.count(s)
        )
        eta = self.eta_seconds()
        head = "run %s: %d point(s) — %s" % (
            self.run_id,
            self.total,
            states or "no points observed",
        )
        if self.finished:
            head += " [finished]"
        elif eta is not None:
            head += " [eta ~%.0fs]" % eta
        return head


# ----------------------------------------------------------------------
class RunStatusBuilder:
    """Folds ledger + sidecar records into :class:`RunStatus` snapshots.

    The single reconstruction algorithm behind both ``repro status``
    access patterns: :func:`load_run_status` feeds it every record at
    once; the incremental ``--watch`` feeds it only the records appended
    since the last poll, via :class:`~repro.telemetry.tail.JsonlTailer`.
    Folding is incremental; :meth:`snapshot` materializes the view, and
    ``snapshot()`` after incremental folds is identical to a full
    reload (asserted by ``tests/runtime/test_status.py``).
    """

    def __init__(self, run_id: str, ledger_path: Path, sidecar_path: Path):
        self.run_id = run_id
        self.ledger_path = Path(ledger_path)
        self.sidecar_path = Path(sidecar_path)
        # Ledger side: the latest ``run`` and ``finish`` records and the
        # latest ``point`` record per key, each with its ordinal.
        self._seq = 0
        self._run: tuple[int, dict] = (-1, {})
        self._finish: tuple[int, dict] = (-1, {})
        self._points: dict[str, tuple[int, dict]] = {}
        # Sidecar side: the live state of unsettled points.
        self._begun: dict[str, dict] = {}  # span id -> B attrs (unmatched)
        self._retried: dict[int, int] = {}
        self._timed_out: dict[int, int] = {}
        self._respawns = 0
        self._span_records = 0

    # ------------------------------------------------------------------
    def fold_span(self, record: dict) -> None:
        """Fold one span-sidecar record into the live state."""
        kind = record.get("k")
        if kind not in _spans.RECORD_KINDS:
            return
        self._span_records += 1
        name = record.get("name")
        attrs = record.get("attrs", {}) or {}
        idx = attrs.get("index")
        if kind == "B" and name == "point":
            self._begun[record.get("id")] = attrs
        elif kind == "E" and name == "point":
            self._begun.pop(record.get("id"), None)
        elif kind == "I" and name == "point.retry" and isinstance(idx, int):
            self._retried[idx] = self._retried.get(idx, 0) + 1
        elif kind == "I" and name == "point.timeout" and isinstance(idx, int):
            self._timed_out[idx] = self._timed_out.get(idx, 0) + 1
        elif kind == "I" and name == "pool.respawn":
            self._respawns += 1

    def fold_ledger(self, record: dict) -> None:
        """Fold one run-ledger record into the accumulated state."""
        kind = record.get("kind")
        if kind == "run":
            self._run = (self._seq, record)
        elif kind == "finish":
            self._finish = (self._seq, record)
        elif kind == "point" and isinstance(record.get("key"), str):
            self._points[record["key"]] = (self._seq, record)
        else:
            return
        self._seq += 1

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether a ``finish`` record follows the latest ``run`` record.

        A ledger journaled before ``run`` records existed lists only
        settled points, so it is finished once it lists any.
        """
        if self._run[0] < 0 and self._finish[0] < 0:
            return bool(self._points)
        return self._finish[0] > self._run[0]

    def snapshot(self) -> RunStatus:
        """Materialize the :class:`RunStatus` of the state so far."""
        run_seq, run = self._run
        finished = self.finished
        status = RunStatus(
            run_id=self.run_id,
            ledger_path=self.ledger_path,
            sidecar_path=self.sidecar_path,
            workers=int(run.get("workers") or 1),
            mode=str(run.get("mode") or "serial"),
            finished=finished,
            metrics=self._finish[1].get("metrics") if finished else None,
            found=bool(
                self._seq or self._span_records or self.ledger_path.is_file()
            ),
        )
        if run:
            entries = list(zip(run.get("keys") or [], run.get("labels") or []))
        else:
            entries = [(k, r.get("label")) for k, (_, r) in self._points.items()]
        # A CLI run appends a ``run`` record per resume, so a point record
        # older than the latest one was restored, not executed, by this
        # run.  The service journals one ``run`` record per run and flags
        # its restored answers instead.
        resumed_at = run_seq if run.get("mode") != "service" else -1
        running: dict[int, dict] = {}
        if not finished:
            for attrs in self._begun.values():
                if isinstance(attrs.get("index"), int):
                    running[attrs["index"]] = attrs
        counters = dict.fromkeys(COUNTER_KEYS, 0)
        for idx, (key, label) in enumerate(entries):
            point = PointState(index=idx, label=label)
            seq, record = self._points.get(key, (-1, None))
            ok = record is not None and record.get("ok", True)
            if record is not None and (ok or seq > run_seq):
                data = record.get("data", {}) or {}
                if not ok:
                    point.state = "failed"
                    point.error_kind = data.get("error_kind")
                elif data.get("restored") or seq < resumed_at:
                    point.state = "restored"
                else:
                    point.state = "done"
                point.attempts = int(data.get("attempts") or 1)
                point.cache_hit = data.get("trace_cache_hit")
                point.wall_time = data.get("duration_s", data.get("wall_time"))
                if point.state != "restored":
                    counters["retries"] += point.attempts - 1
                    counters["timeouts"] += int(data.get("timeouts") or 0)
                    counters["quarantined_entries"] += int(
                        data.get("quarantined") or 0
                    )
            elif not finished:
                counters["retries"] += self._retried.get(idx, 0)
                counters["timeouts"] += self._timed_out.get(idx, 0)
                if idx in running:
                    point.state = "running"
                    point.attempts = int(running[idx].get("attempt") or 1)
                elif idx in self._retried:
                    point.state = "retrying"
                    point.attempts = self._retried[idx] + 1
            status.points.append(point)

        if status.metrics is not None:
            # Report the run's own metrics verbatim so these counters
            # match the sweep report exactly.
            counters = {k: status.metrics.get(k, 0) for k in COUNTER_KEYS}
        else:
            counters["recovered_workers"] = 0 if finished else self._respawns
            counters["restored_points"] = status.count("restored")
            counters["errors"] = status.count("failed")
        counters["cache_hits"] = sum(
            1 for p in status.points if p.cache_hit is True
        )
        status.counters = counters
        return status


def status_paths(run_id: str, root: str | Path | None = None) -> tuple[Path, Path]:
    """``(ledger, sidecar)`` artifact paths of one run id under ``root``."""
    root = Path(root) if root is not None else default_ledger_root()
    ledger_path = root / (run_id + ".jsonl")
    return ledger_path, _spans.sidecar_path(ledger_path)


def load_run_status(run_id: str, root: str | Path | None = None) -> RunStatus:
    """Reconstruct the status of ``run_id`` from its on-disk artifacts.

    ``root`` defaults to the run-ledger directory
    (``$REPRO_RUN_LEDGER`` / ``~/.cache/repro/runs``).  Works on live
    sweeps (whose sidecar supplies the unsettled points' live state),
    finished ones (the ledger alone), and historical ledgers; a run with
    no artifacts at all yields ``found=False``.
    """
    ledger_path, sidecar = status_paths(run_id, root)
    builder = RunStatusBuilder(run_id, ledger_path, sidecar)
    for record in read_jsonl(ledger_path):
        builder.fold_ledger(record)
    if not builder.finished:
        for record in _spans.read_sidecar(sidecar):
            builder.fold_span(record)
    return builder.snapshot()


# ----------------------------------------------------------------------
def status_table_rows(status: RunStatus) -> list[dict]:
    """Point-level rows for :func:`repro.experiments.common.render_table`."""
    rows = []
    for point in status.points:
        rows.append(
            {
                "idx": point.index,
                "label": point.label,
                "state": point.state,
                "tries": point.attempts or None,
                "cache": (
                    None
                    if point.cache_hit is None
                    else ("hit" if point.cache_hit else "miss")
                ),
                "wall_s": point.wall_time,
                "error": point.error_kind,
            }
        )
    return rows


def watch(
    run_id: str,
    root: str | Path | None = None,
    poll: float = 2.0,
    render=None,
    max_polls: int | None = None,
) -> RunStatus:
    """Incrementally tail the run's artifacts until it finishes.

    Unlike a :func:`load_run_status` loop, each poll reads only the
    bytes appended to the ledger and span sidecar since the previous
    poll (:class:`~repro.telemetry.tail.JsonlTailer`) and folds them
    into the same :class:`RunStatusBuilder` — a watch over an hours-long
    sweep costs O(new records) per refresh, not O(history), and the
    rendered status is identical to a full reload at every step.

    ``render`` is called with each fresh :class:`RunStatus`; ``max_polls``
    bounds the loop for tests.  Returns the last status observed.
    """
    ledger_path, sidecar = status_paths(run_id, root)
    builder = RunStatusBuilder(run_id, ledger_path, sidecar)
    ledger_tail = JsonlTailer(ledger_path)
    sidecar_tail = JsonlTailer(sidecar)
    polls = 0
    while True:
        for record in ledger_tail.poll():
            builder.fold_ledger(record)
        for record in sidecar_tail.poll():
            builder.fold_span(record)
        status = builder.snapshot()
        if render is not None:
            render(status)
        polls += 1
        if status.finished or (max_polls is not None and polls >= max_polls):
            return status
        time.sleep(max(0.1, poll))
