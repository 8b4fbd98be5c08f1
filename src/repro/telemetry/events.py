"""Bounded structured event trace: ring buffer + JSONL sink.

Discrete simulator events — evictions, writebacks, prefetch issues and
drops, MPP chases, TLB walks, demand DRAM misses — are recorded as typed
tuples in a bounded ring buffer.  When the buffer is full the *oldest*
events are discarded (``dropped`` counts them), so memory stays bounded
no matter how long the run is; the JSONL sink writes whatever the ring
still holds at export time.

Each event carries: simulated cycle (``None`` for untimed near-memory
events), the event kind, cache-line number, core, data-type/region tag
and an optional detail string.  Events are deliberately flat so a line
of JSONL is self-describing.
"""

from __future__ import annotations

import json
from collections import Counter as _TallyCounter
from collections import deque
from pathlib import Path

__all__ = ["EventTrace", "TraceEvent", "EVENT_KINDS"]

#: The event vocabulary emitted by the instrumented machine.
EVENT_KINDS = (
    "writeback",        # dirty line left the chip
    "evict_unused_pf",  # prefetched line evicted untouched
    "evict_pf",         # prefetched line evicted after use
    "dram_demand",      # demand miss serviced by DRAM
    "prefetch_issue",   # L2/IMP prefetch issued to DRAM
    "prefetch_drop",    # prefetch dropped before issue (page fault)
    "mpp_chase",        # MPP property chase issued
    "mpp_forward",      # chase forwarded to a remote MC
    "tlb_walk",         # MTLB page walk on a property translation
    "phase",            # workload phase boundary crossed
)


class TraceEvent(tuple):
    """One structured event: ``(cycle, kind, line, core, dtype, detail)``."""

    __slots__ = ()

    def __new__(cls, cycle, kind, line=None, core=None, dtype=None, detail=None):
        return tuple.__new__(cls, (cycle, kind, line, core, dtype, detail))

    cycle = property(lambda self: self[0])
    kind = property(lambda self: self[1])
    line = property(lambda self: self[2])
    core = property(lambda self: self[3])
    dtype = property(lambda self: self[4])
    detail = property(lambda self: self[5])

    def as_dict(self) -> dict:
        """JSON-safe form with ``None`` fields omitted."""
        out = {"kind": self[1]}
        if self[0] is not None:
            out["cycle"] = self[0]
        for key, value in (
            ("line", self[2]),
            ("core", self[3]),
            ("dtype", self[4]),
            ("detail", self[5]),
        ):
            if value is not None:
                out[key] = value
        return out


class EventTrace:
    """Bounded ring buffer of :class:`TraceEvent` records."""

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events lost to ring-buffer wraparound (oldest first)."""
        return self.emitted - len(self._ring)

    def emit(self, cycle, kind, line=None, core=None, dtype=None, detail=None) -> None:
        """Append one event (oldest events fall off a full ring)."""
        self._ring.append(TraceEvent(cycle, kind, line, core, dtype, detail))
        self.emitted += 1

    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._ring)

    def as_dicts(self) -> list[dict]:
        """Retained events as JSON-safe dicts."""
        return [ev.as_dict() for ev in self._ring]

    def counts_by_kind(self) -> dict[str, int]:
        """Tally of retained events per kind."""
        return dict(_TallyCounter(ev.kind for ev in self._ring))

    def write_jsonl(self, path: str | Path) -> int:
        """Write retained events as JSON Lines; returns lines written."""
        path = Path(path)
        with path.open("w") as sink:
            for ev in self._ring:
                sink.write(json.dumps(ev.as_dict(), sort_keys=True))
                sink.write("\n")
        return len(self._ring)
