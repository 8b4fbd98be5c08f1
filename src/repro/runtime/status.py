"""Run-status reconstruction: what a sweep is doing (or did), per point.

The store seam of the scheduler/executor/store split (ROADMAP item 1):
:func:`load_run_status` rebuilds a :class:`RunStatus` for a live or
finished sweep purely from its on-disk artifacts — the
:class:`~repro.runtime.ledger.RunLedger` JSONL and the span sidecar
journaled by :mod:`repro.telemetry.spans` — without touching the sweep
process.  ``repro status`` renders it; the future sweep service will
stream it.

Two sources, merged:

* **Span sidecar** (``<run_id>.spans.jsonl``) — authoritative while a
  sweep runs: the ``sweep.run`` meta record enumerates every point
  label, ``point.final`` instants settle each point, an unmatched
  ``point`` begin means *running right now* (or a worker that died
  mid-point), ``point.retry``/``point.timeout``/``pool.respawn``
  instants are 1:1 with the runner's resilience counters, and the
  ``sweep.finish`` record carries the final metrics dict verbatim — so
  a finished run's status counters match its sweep report exactly.
* **Run ledger** (``<run_id>.jsonl``) — the durable completion journal;
  on historical runs recorded before span tracing existed (or with
  ``--no-spans``) it alone yields per-point completion, durations and
  ETAs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..telemetry import spans as _spans
from ..telemetry.tail import JsonlTailer
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


@dataclass
class PointState:
    """Observed state of one sweep point."""

    index: int
    label: str
    state: str = "pending"  # one of POINT_STATES
    attempts: int = 0
    cache_hit: bool | None = None
    tier: str | None = None
    wall_time: float | None = None
    error_kind: str | None = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "state": self.state,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "tier": self.tier,
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
    #: Resilience counters.  From the ``sweep.finish`` metrics verbatim
    #: when the run finished under tracing; derived 1:1 from the
    #: retry/timeout/respawn instants while it runs.
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
    once; the incremental ``--watch`` (and the sweep service's pollers)
    feed it only the records appended since the last poll, via
    :class:`~repro.telemetry.tail.JsonlTailer`.  Folding is
    incremental; :meth:`snapshot` materializes the merged view, and
    ``snapshot()`` after incremental folds is identical to a full
    reload (asserted by ``tests/runtime/test_status.py``).
    """

    def __init__(self, run_id: str, ledger_path: Path, sidecar_path: Path):
        self.run_id = run_id
        self.ledger_path = Path(ledger_path)
        self.sidecar_path = Path(sidecar_path)
        # Span-side accumulators.
        self._labels: list[str] = []
        self._workers = 1
        self._mode = "serial"
        self._finished = False
        self._metrics: dict | None = None
        self._finals: dict[int, dict] = {}
        self._begun: dict[str, dict] = {}  # span id -> B attrs (unmatched)
        self._retried: dict[int, int] = {}
        self._derived = {"retries": 0, "timeouts": 0, "recovered_workers": 0}
        self._quarantined = 0
        self._span_records = 0
        # Ledger-side accumulators.
        self._journaled: dict[str, dict] = {}
        self._ledger_order: list[str] = []

    # ------------------------------------------------------------------
    def fold_span(self, record: dict) -> None:
        """Fold one span-sidecar record into the accumulated state."""
        kind = record.get("k")
        if kind not in _spans.RECORD_KINDS:
            return
        self._span_records += 1
        name = record.get("name")
        attrs = record.get("attrs", {}) or {}
        if kind == "M" and name == "sweep.run":
            self._labels = list(attrs.get("labels") or [])
            self._workers = int(attrs.get("workers") or 1)
            self._mode = str(attrs.get("mode") or self._mode)
        elif kind == "F" and name == "sweep.finish":
            self._finished = True
            metrics = attrs.get("metrics")
            if isinstance(metrics, dict):
                self._metrics = metrics
        elif kind == "B" and name == "point":
            self._begun[record.get("id")] = attrs
        elif kind == "E" and name == "point":
            self._begun.pop(record.get("id"), None)
        elif kind == "I" and name == "point.final":
            idx = attrs.get("index")
            if isinstance(idx, int):
                self._finals[idx] = attrs
        elif kind == "I" and name == "point.retry":
            self._derived["retries"] += 1
            idx = attrs.get("index")
            if isinstance(idx, int):
                self._retried[idx] = self._retried.get(idx, 0) + 1
        elif kind == "I" and name == "point.timeout":
            self._derived["timeouts"] += 1
        elif kind == "I" and name == "pool.respawn":
            self._derived["recovered_workers"] += 1
        elif kind == "I" and name == "trace_cache.quarantine":
            self._quarantined += 1

    def fold_ledger(self, record: dict) -> None:
        """Fold one run-ledger record into the accumulated state."""
        if not isinstance(record, dict) or record.get("kind") != "point":
            return
        label = record.get("label")
        if isinstance(label, str):
            if label not in self._journaled:
                self._ledger_order.append(label)
            self._journaled[label] = record.get("data", {}) or {}

    # ------------------------------------------------------------------
    @property
    def folded(self) -> int:
        """Records folded so far (either source)."""
        return self._span_records + len(self._journaled)

    def snapshot(self) -> RunStatus:
        """Materialize the merged :class:`RunStatus` of the state so far."""
        status = RunStatus(
            run_id=self.run_id,
            ledger_path=self.ledger_path,
            sidecar_path=self.sidecar_path,
            workers=self._workers,
            mode=self._mode,
            finished=self._finished,
            metrics=self._metrics,
            found=bool(
                self.folded
                or self._span_records
                or self.ledger_path.is_file()
            ),
        )
        open_points: dict[int, dict] = {}
        for attrs in self._begun.values():
            idx = attrs.get("index")
            if isinstance(idx, int) and idx not in self._finals:
                open_points[idx] = attrs
        labels = self._labels or list(self._ledger_order)

        # ------------------------------------------------------- merge
        for idx, label in enumerate(labels):
            point = PointState(index=idx, label=label)
            final = self._finals.get(idx)
            data = self._journaled.get(label)
            if final is not None:
                restored = bool(final.get("restored"))
                if final.get("ok"):
                    point.state = "restored" if restored else "done"
                else:
                    point.state = "failed"
                    point.error_kind = final.get("error_kind")
                point.attempts = int(final.get("attempts") or 0)
                point.cache_hit = final.get("cache_hit")
                point.tier = final.get("tier")
                point.wall_time = final.get("wall_time")
            elif idx in open_points:
                point.state = "running"
                point.attempts = int(open_points[idx].get("attempt") or 1)
            elif idx in self._retried:
                point.state = "retrying"
                point.attempts = self._retried[idx] + 1
            elif data is not None:
                point.state = "done"
                point.attempts = int(data.get("attempts") or 1)
                point.cache_hit = data.get("trace_cache_hit")
                point.tier = data.get("replay_tier")
                point.wall_time = data.get("duration_s", data.get("wall_time"))
            if point.wall_time is None and data is not None:
                point.wall_time = data.get("duration_s", data.get("wall_time"))
            status.points.append(point)

        # --------------------------------------------------- counters
        if status.metrics is not None:
            # Finished under tracing: report the sweep's own metrics
            # verbatim so these counters match the sweep report exactly.
            status.counters = {
                key: status.metrics.get(key, 0)
                for key in (
                    "retries",
                    "timeouts",
                    "recovered_workers",
                    "quarantined_entries",
                    "restored_points",
                    "errors",
                )
            }
        else:
            derived = dict(self._derived)
            derived["restored_points"] = status.count("restored")
            derived["errors"] = status.count("failed")
            derived["quarantined_entries"] = self._quarantined
            status.counters = derived
        status.counters["cache_hits"] = sum(
            1 for p in status.points if p.cache_hit is True
        )
        # A ledger-only run has no finish record; call it finished when
        # every enumerated point is settled and nothing is in flight.
        if not self._span_records and status.points:
            status.finished = all(p.state == "done" for p in status.points)
        return status


def _ledger_records(path: Path) -> list[dict]:
    """All records of a ledger file (tolerant parse)."""
    import json

    records: list[dict] = []
    if not path.is_file():
        return []
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn trailing line
        if isinstance(record, dict):
            records.append(record)
    return records


def status_paths(run_id: str, root: str | Path | None = None) -> tuple[Path, Path]:
    """``(ledger, sidecar)`` artifact paths of one run id under ``root``."""
    root = Path(root) if root is not None else default_ledger_root()
    ledger_path = root / (run_id + ".jsonl")
    return ledger_path, _spans.sidecar_path(ledger_path)


def load_run_status(run_id: str, root: str | Path | None = None) -> RunStatus:
    """Reconstruct the status of ``run_id`` from its on-disk artifacts.

    ``root`` defaults to the run-ledger directory
    (``$REPRO_RUN_LEDGER`` / ``~/.cache/repro/runs``).  Works on live
    sweeps (tail the sidecar), finished ones, and historical ledger-only
    runs; a run with no artifacts at all yields ``found=False``.
    """
    ledger_path, sidecar = status_paths(run_id, root)
    builder = RunStatusBuilder(run_id, ledger_path, sidecar)
    for record in _ledger_records(ledger_path):
        builder.fold_ledger(record)
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
                "tier": point.tier,
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
