"""Append-only run ledgers: checkpoint/resume for interrupted sweeps.

A :class:`RunLedger` journals every *successful*
:class:`~repro.runtime.points.PointResult` of a sweep to one JSONL file
as the point completes, content-addressed by :func:`point_key`.  If the
sweep dies — SIGKILL, OOM, power loss — re-running it against the same
ledger (``repro sweep --resume <run-id>``) restores the journaled points
and executes only the remainder.

Design notes
------------
* **Append-only, line-atomic.**  Each record is one JSON line followed
  by ``flush`` + ``fsync``; a crash mid-write leaves at most one torn
  trailing line, which :meth:`RunLedger.open` skips.  Nothing is ever
  rewritten, so a ledger can only grow more complete.
* **Content-addressed.**  Records are keyed by a digest over the point's
  full identity (trace spec + machine knobs + on-disk format versions),
  not by index — reordering or extending the sweep still resumes
  correctly, and format bumps invalidate stale records automatically.
* **Failures are not journaled.**  A resumed sweep retries every point
  that did not complete successfully; errors are recomputed, never
  replayed.
* **Summaries only.**  Restored points carry their journaled summary,
  telemetry payload and timings but no full ``SimResult`` (those are not
  JSON-serializable); resume is therefore exact for ``return_full=False``
  sweeps — which includes ``repro sweep`` — and summary-exact otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import time
from pathlib import Path

from ..telemetry import spans as _spans
from .points import PointResult, SweepPoint

__all__ = [
    "RunLedger",
    "LedgerError",
    "point_key",
    "new_run_id",
    "default_ledger_root",
    "LEDGER_FORMAT",
]

#: Format marker written to every ledger header; bump on layout changes.
LEDGER_FORMAT = "repro-run-ledger-v1"

#: Environment variable overriding the ledger directory.
LEDGER_ENV_VAR = "REPRO_RUN_LEDGER"


class LedgerError(RuntimeError):
    """Raised for unusable ledgers (format skew, settings mismatch)."""


def default_ledger_root() -> Path:
    """``$REPRO_RUN_LEDGER`` or ``~/.cache/repro/runs``."""
    value = os.environ.get(LEDGER_ENV_VAR)
    if value:
        return Path(value).expanduser()
    return Path.home() / ".cache" / "repro" / "runs"


def new_run_id() -> str:
    """A fresh run id: sortable timestamp plus a collision-proof suffix."""
    return "%s-%s" % (time.strftime("%Y%m%d-%H%M%S"), secrets.token_hex(3))


def point_key(point: SweepPoint) -> str:
    """Content address of one sweep point (identity + format versions).

    Two points share a key exactly when their results are interchangeable:
    same trace identity, same machine-side knobs, same on-disk encodings.
    """
    from ..trace.io import TRACE_FORMAT_VERSION
    from .trace_cache import CACHE_FORMAT_VERSION

    identity = {
        "workload": point.workload,
        "dataset": point.dataset,
        "setup": point.setup,
        "max_refs": point.max_refs,
        "scale_shift": point.scale_shift,
        "seed": point.seed,
        "multi_property": point.multi_property,
        "llc_multiplier": point.llc_multiplier,
        "l2_config": list(point.l2_config) if point.l2_config else None,
        "trace_format": TRACE_FORMAT_VERSION,
        "cache_format": CACHE_FORMAT_VERSION,
    }
    # Newer machine knobs (the `repro pareto` search axes) join the
    # identity only when set, so content addresses of points journaled
    # before these knobs existed never change.
    if point.rob_entries is not None:
        identity["rob_entries"] = point.rob_entries
    if point.mrb_entries is not None:
        identity["mrb_entries"] = point.mrb_entries
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


class RunLedger:
    """One sweep's on-disk journal: ``<root>/<run_id>.jsonl``.

    Usage: construct, :meth:`open` with the sweep's settings (loads any
    existing records, writes the header on first use), then
    :meth:`restore` per point before execution and :meth:`record` per
    completed point.
    """

    def __init__(self, run_id: str, root: str | Path | None = None):
        if not run_id or any(c in run_id for c in "/\\"):
            raise ValueError("bad run id %r" % (run_id,))
        self.run_id = run_id
        self.root = Path(root) if root is not None else default_ledger_root()
        self.path = self.root / (run_id + ".jsonl")
        self._completed: dict[str, dict] = {}
        self._opened = False

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        """Whether this run already has a ledger file on disk."""
        return self.path.is_file()

    def __len__(self) -> int:
        return len(self._completed)

    def __contains__(self, key: str) -> bool:
        return key in self._completed

    # ------------------------------------------------------------------
    def open(self, telemetry: bool = False, telemetry_interval: int | None = None) -> int:
        """Load prior records (tolerating a torn tail) and ensure a header.

        Raises :class:`LedgerError` on format skew or when the prior run
        journaled under different telemetry settings — restored points
        would otherwise silently lack (or carry stale) telemetry
        payloads.  Returns the number of restorable points.
        """
        self._completed.clear()
        header = None
        if self.exists():
            for line in self.path.read_text().splitlines():
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn trailing line from a hard kill
                if record.get("kind") == "header" and header is None:
                    header = record
                elif record.get("kind") == "point" and "key" in record:
                    self._completed[record["key"]] = record
            if header is None or header.get("format") != LEDGER_FORMAT:
                raise LedgerError(
                    "%s is not a %s ledger" % (self.path, LEDGER_FORMAT)
                )
            if bool(header.get("telemetry")) != bool(telemetry) or (
                telemetry
                and header.get("telemetry_interval") != telemetry_interval
            ):
                raise LedgerError(
                    "ledger %s was journaled with different telemetry "
                    "settings; resume with the original flags or start a "
                    "new run id" % self.run_id
                )
        else:
            self._append(
                {
                    "kind": "header",
                    "format": LEDGER_FORMAT,
                    "run_id": self.run_id,
                    "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                    "telemetry": bool(telemetry),
                    "telemetry_interval": telemetry_interval if telemetry else None,
                }
            )
        self._opened = True
        return len(self._completed)

    # ------------------------------------------------------------------
    def restore(self, point: SweepPoint) -> PointResult | None:
        """Rebuild the journaled result for ``point``, or ``None``."""
        record = self._completed.get(point_key(point))
        if record is None:
            return None
        data = record.get("data", {})
        result = PointResult(
            point=point,
            summary=data.get("summary"),
            wall_time=float(data.get("wall_time", 0.0)),
            trace_cache_hit=data.get("trace_cache_hit"),
            telemetry=data.get("telemetry"),
            attempts=int(data.get("attempts", 1)),
            restored=True,
            replay_tier=data.get("replay_tier"),
        )
        trc = _spans.current()
        if trc is not None:
            trc.event("ledger.restore", key=point_key(point), label=point.label)
        return result

    def record(self, point: SweepPoint, result: PointResult) -> None:
        """Journal one completed point (successful results only)."""
        if not self._opened:
            raise LedgerError("ledger %s not opened" % self.run_id)
        if not result.ok:
            return  # failures re-execute on resume
        key = point_key(point)
        record = {
            "kind": "point",
            "key": key,
            "label": point.label,
            "data": {
                "summary": result.summary,
                # Wall-clock completion stamp plus the monotonic duration:
                # `repro status` ETAs and `repro trend` need both even on
                # historical ledgers.
                "completed_at": time.time(),
                "duration_s": result.wall_time,
                "wall_time": result.wall_time,
                "trace_cache_hit": result.trace_cache_hit,
                "telemetry": result.telemetry,
                "attempts": result.attempts,
                "replay_tier": result.replay_tier,
            },
        }
        self._append(record)
        self._completed[key] = record
        trc = _spans.current()
        if trc is not None:
            trc.event("ledger.append", key=key, label=point.label)

    def completed_records(self) -> dict[str, dict]:
        """Snapshot of the journaled point records, keyed by point key.

        Read-side accessor for observers (the service's ``/results``
        endpoint) that load a ledger via :meth:`refresh` without opening
        it for writing.
        """
        return dict(self._completed)

    def refresh(self) -> list[str]:
        """Merge records appended to the file by other processes.

        Multi-host sweep-service processes share one ledger file per
        run over shared storage: the executing process appends, the
        observers ``refresh()`` and adopt.  Re-reads the file (tolerant
        of a torn tail, like :meth:`open`) and folds in any ``point``
        records this instance has not seen; returns their keys.
        """
        if not self.exists():
            return []
        fresh: list[str] = []
        for line in self.path.read_text().splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn trailing line from a hard kill
            if record.get("kind") != "point" or "key" not in record:
                continue
            if record["key"] not in self._completed:
                self._completed[record["key"]] = record
                fresh.append(record["key"])
        return fresh

    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def __repr__(self) -> str:
        return "RunLedger(run_id=%r, path=%r, completed=%d)" % (
            self.run_id,
            str(self.path),
            len(self._completed),
        )
