"""Set-associative cache model with LRU replacement.

Matches the paper's Table I cache organization: physically indexed
set-associative arrays, LRU replacement, 64 B lines, separate tag/data
access latencies (taken from CACTI in the paper; we carry them as plain
configuration numbers).

A set is a plain ``dict`` in LRU order: its first key is the least and
its last key the most recently used line.  A touch pops the line and
re-inserts it; an eviction pops ``next(iter(set))``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..trace.record import DataType
from .stats import CacheStats

__all__ = ["Cache", "CacheConfig", "CacheLine"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    line_size: int = 64
    data_latency: int = 4
    tag_latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_size <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.associativity * self.line_size):
            raise ValueError(
                "%s: size %d not divisible by assoc*line (%d*%d)"
                % (self.name, self.size_bytes, self.associativity, self.line_size)
            )

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.associativity * self.line_size)

    @property
    def num_lines(self) -> int:
        """Total line capacity."""
        return self.size_bytes // self.line_size


@dataclass(slots=True)
class CacheLine:
    """Metadata for one resident line.

    The hierarchy's fill core reuses an evicted line's record for the
    line that replaces it, so a record is built only for a free way.
    """

    dirty: bool = False
    prefetched: bool = False
    kind: int = int(DataType.INTERMEDIATE)
    used: bool = False  # demand-touched since fill (prefetch usefulness)


class Cache:
    """One set-associative, LRU cache level keyed by global line number."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats(name=config.name)
        self._sets: list[dict[int, CacheLine]] = [
            {} for _ in range(config.num_sets)
        ]
        self._num_sets = config.num_sets
        self._assoc = config.associativity

    # ------------------------------------------------------------------
    def _set_of(self, line: int) -> dict[int, CacheLine]:
        return self._sets[line % self._num_sets]

    def lookup(self, line: int, update_lru: bool = True) -> CacheLine | None:
        """Probe for ``line``; returns its metadata on hit, else ``None``."""
        s = self._set_of(line)
        if not update_lru:
            return s.get(line)
        meta = s.pop(line, None)
        if meta is not None:
            s[line] = meta
        return meta

    def contains(self, line: int) -> bool:
        """Presence check without LRU update (coherence-engine probe)."""
        return line in self._set_of(line)

    # ------------------------------------------------------------------
    # Batched probe API (batch-replay fast path)
    # ------------------------------------------------------------------
    def touch_run(self, lines, stores=None) -> None:
        """Apply a run of *guaranteed* demand hits in one call.

        ``lines`` is a sequence of resident line numbers in access order;
        ``stores`` (parallel booleans, or ``None`` for a load-only run)
        marks which accesses dirty their line.  Equivalent to calling
        :meth:`lookup` per access (plus setting the dirty bit on stores)
        but without per-access Python call overhead.  Hit *counters* are
        left to the caller, which aggregates them from the plan's prefix
        sums.

        The caller guarantees residency — e.g. via the conservative
        stack-distance filter of
        :func:`repro.cache.reuse.guaranteed_hit_mask`; a non-resident
        line raises ``KeyError`` (a planner bug, never a cache state).
        """
        sets = self._sets
        num_sets = self._num_sets
        if stores is None:
            for line in lines:
                target = sets[line % num_sets]
                target[line] = target.pop(line)
            return
        for line, store in zip(lines, stores):
            target = sets[line % num_sets]
            meta = target.pop(line)
            target[line] = meta
            if store:
                meta.dirty = True

    def insert(
        self,
        line: int,
        kind: DataType = DataType.INTERMEDIATE,
        dirty: bool = False,
        prefetched: bool = False,
    ) -> tuple[int, CacheLine] | None:
        """Fill ``line``; returns the evicted ``(line, meta)`` if any.

        Filling a resident line refreshes LRU and merges the dirty bit.
        """
        s = self._set_of(line)
        existing = s.pop(line, None)
        if existing is not None:
            s[line] = existing
            existing.dirty = existing.dirty or dirty
            return None
        victim = None
        if len(s) >= self._assoc:
            vline = next(iter(s))
            victim = (vline, s.pop(vline))
            self.stats.evictions += 1
        s[line] = CacheLine(dirty=dirty, prefetched=prefetched, kind=int(kind))
        if prefetched:
            self.stats.prefetch_fills += 1
        return victim

    def invalidate(self, line: int) -> CacheLine | None:
        """Remove ``line`` (back-invalidation); returns its metadata."""
        meta = self._set_of(line).pop(line, None)
        if meta is not None:
            self.stats.back_invalidations += 1
        return meta

    def resident_lines(self) -> list[int]:
        """All resident line numbers (test/diagnostic helper)."""
        out: list[int] = []
        for s in self._sets:
            out.extend(s)
        return out

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)
