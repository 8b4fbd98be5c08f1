"""Incremental JSONL tailing with byte-offset resume and rotation.

The span sidecar and the run ledger are both append-only JSONL files.
``repro status --watch`` used to re-read and re-parse both files on
every poll; the sweep service streams sidecars to many concurrent SSE
clients.  Both need the same primitive: *give me only the records that
appeared since I last looked*.  :class:`JsonlTailer` provides it:

* **Byte-offset resume** — each :meth:`poll` reads from the previous
  offset, parses only the newly appended complete lines, and leaves a
  torn trailing line (a record mid-write, or a sweep killed mid-line)
  for the next poll.  The cursor is exposed (:attr:`offset` /
  :meth:`seek`) so an SSE client can resume a dropped connection from
  its last event id without replaying the whole file.
* **Rotation awareness** — when the watched file is size-rotated
  (``spans.jsonl`` renamed to ``spans.jsonl.1`` by
  :class:`~repro.telemetry.spans.SpanRecorder`), the tailer notices the
  shrink, finishes reading the rotated file from its old offset, and
  continues on the fresh file from byte 0 — no records are skipped or
  replayed across one rotation.  (Two rotations between polls lose the
  middle generation, exactly like the on-disk bound itself.)

A missing file is not an error — the sweep may not have started yet —
polls simply return ``[]`` until it appears.

:func:`read_jsonl` is the one-shot counterpart: every record of a file
in one read, for the readers that fold a whole ledger, journal or
sidecar generation at once.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["JsonlTailer", "ROTATED_SUFFIX", "read_jsonl"]

#: Suffix of the single rotated generation kept beside a bounded file.
ROTATED_SUFFIX = ".1"


def read_jsonl(path: str | Path) -> list[dict]:
    """Every JSON-object line of ``path``, in file order.

    Unparseable lines — the torn tail a hard kill leaves mid-append —
    are skipped, and a missing file reads as ``[]``.
    """
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        return []
    records: list[dict] = []
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


class JsonlTailer:
    """Incremental reader of one (possibly rotating) JSONL file.

    Parameters
    ----------
    path:
        The live file to tail.  Its rotated sibling (``<path>.1``) is
        read first on a fresh tailer and mid-stream when a rotation is
        detected.
    skip_rotated:
        Start at the live file's current generation only, ignoring any
        pre-existing rotated sibling (used when the caller already
        consumed history through a full read).
    """

    def __init__(self, path: str | Path, skip_rotated: bool = False):
        self.path = Path(path)
        self.rotated = Path(str(self.path) + ROTATED_SUFFIX)
        #: Byte offset of the next unread record in the live file.
        self._offset = 0
        #: Byte offset within the rotated file (history catch-up).
        self._rotated_offset = 0
        self._rotated_done = skip_rotated
        #: Total complete records yielded so far (SSE event ids).
        self.records_seen = 0

    # ------------------------------------------------------------------
    @property
    def offset(self) -> int:
        """Byte offset of the next unread record in the live file."""
        return self._offset

    def seek(self, offset: int) -> None:
        """Resume the live-file cursor at ``offset`` (rotated history is
        considered consumed — the resuming client already saw it)."""
        self._offset = max(0, int(offset))
        self._rotated_done = True

    # ------------------------------------------------------------------
    @staticmethod
    def _read_lines(path: Path, offset: int) -> tuple[list[dict], int]:
        """Complete-line records of ``path`` past ``offset``.

        Returns ``(records, new_offset)``; the offset only advances past
        the last newline, so a torn tail is retried on the next poll.
        Unparseable complete lines (torn by a hard kill, then appended
        over) are skipped but still consumed.
        """
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                blob = handle.read()
        except OSError:
            return [], offset
        if not blob:
            return [], offset
        end = blob.rfind(b"\n")
        if end < 0:
            return [], offset  # nothing complete yet
        records: list[dict] = []
        for line in blob[: end + 1].splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
        return records, offset + end + 1

    def _live_size(self) -> int:
        try:
            return self.path.stat().st_size
        except OSError:
            return -1

    # ------------------------------------------------------------------
    def poll(self) -> list[dict]:
        """Records appended since the last poll (oldest first)."""
        records: list[dict] = []

        # Catch up on pre-existing rotated history exactly once.
        if not self._rotated_done:
            if self.rotated.is_file():
                chunk, self._rotated_offset = self._read_lines(
                    self.rotated, self._rotated_offset
                )
                records.extend(chunk)
            # Stay in catch-up only while the rotated file may still
            # grow (it cannot: rotation is a rename) — one pass is
            # enough unless a rotation happens mid-stream (below).
            self._rotated_done = True

        size = self._live_size()
        if 0 <= size < self._offset:
            # The live file shrank: it was rotated out from under us.
            # Our previous offset now addresses the rotated sibling —
            # finish it, then restart on the fresh live file.
            chunk, _ = self._read_lines(self.rotated, self._offset)
            records.extend(chunk)
            self._offset = 0

        chunk, self._offset = self._read_lines(self.path, self._offset)
        records.extend(chunk)
        self.records_seen += len(records)
        return records
