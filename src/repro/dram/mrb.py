"""Memory Request Buffer (MRB) with the reinterpreted C-bit (paper §V-C1).

Modern memory controllers keep a request buffer whose entries carry a
criticality bit (C-bit) distinguishing demand requests from prefetches
for scheduling.  DROPLET reinterprets a set C-bit as "this is a
*structure* prefetch from the L2 streamer" and adds a core-ID field so
the MPP knows which core's private L2 should receive the chased property
prefetches.

Trace replay does not queue requests here.  It models no request in
flight, so each entry would retire in the step that queued it and the
buffer would always be empty.  The machine instead reads the C-bit's
meaning directly when it decides whether a prefetch fill goes to the
MPP (:meth:`repro.system.machine.Machine._issue_stream_prefetch`).  The
class keeps the buffer's capacity, overflow and storage accounting, and
its telemetry gauges read 0 during replay.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryRequestBuffer", "MRBEntry"]


@dataclass(frozen=True)
class MRBEntry:
    """One in-flight DRAM request's metadata."""

    line: int
    c_bit: bool  # set ⇒ prefetch (and, with DROPLET's streamer, structure)
    core: int


class MemoryRequestBuffer:
    """Bounded FIFO of in-flight request metadata (default 256 entries).

    When full, the oldest entry is retired silently — the corresponding
    fill simply loses its metadata, exactly the failure mode a bounded
    hardware buffer would have.
    """

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: Entries by line, oldest first.
        self._entries: dict[int, MRBEntry] = {}
        self.overflows = 0

    def __len__(self) -> int:
        return len(self._entries)

    def enqueue(self, line: int, c_bit: bool, core: int) -> None:
        """Record an outgoing DRAM request's metadata."""
        entries = self._entries
        old = entries.pop(line, None)
        if old is not None:
            # A demand can merge with an in-flight prefetch; keep the
            # stronger (prefetch) tag so the MPP still sees the fill.
            c_bit = c_bit or old.c_bit
        entries[line] = MRBEntry(line, c_bit, core)
        if len(entries) > self.capacity:
            del entries[next(iter(entries))]
            self.overflows += 1

    def register_telemetry(self, registry, prefix: str = "mrb") -> None:
        """Expose occupancy and overflow counters under ``prefix``."""
        registry.gauge(prefix + ".occupancy", lambda: len(self._entries))
        registry.gauge(prefix + ".overflows", lambda: self.overflows)

    def retire(self, line: int) -> MRBEntry | None:
        """Consume the metadata of a completed fill, if still buffered."""
        return self._entries.pop(line, None)

    def storage_overhead_bytes(self, num_cores: int) -> int:
        """Extra storage for the core-ID field (paper §V-D accounting)."""
        bits_per_entry = max(1, (num_cores - 1).bit_length())
        return (bits_per_entry * self.capacity + 7) // 8
