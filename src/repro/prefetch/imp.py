"""Indirect Memory Prefetcher (IMP) — Yu et al., MICRO 2015 [70].

The paper's related-work section contrasts DROPLET with IMP: a
hardware-only L1 prefetcher that *learns* indirect ``A[B[i]]`` patterns
by correlating the **values** returned by streaming index loads with the
**addresses** of subsequent misses, solving for the ``(base, shift)``
pair of ``addr = base + (value << shift)``.  Once trained, it chases the
index stream ahead.

We implement IMP at trace-replay fidelity: the machine feeds it index
*values* (the neighbor IDs inside structure lines, recovered through the
layout — the same information the hardware sees on the fill path) and
demand-miss addresses.  Differences from DROPLET that the paper calls
out, and which this model reproduces:

* training needs streaks of candidate (value, address) pairs — several
  misses per pattern before any prefetch is issued (DROPLET needs none);
* it is monolithic at the L1, so chased prefetches are only issued when
  the index line arrives back at the core (no MC decoupling).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..trace.record import DataType
from .base import Prefetcher

__all__ = ["IMPPrefetcher", "IndirectPattern"]


@dataclass
class IndirectPattern:
    """One learned ``addr = base + (value << shift)`` relation."""

    shift: int
    base: int
    hits: int = 0


class _Candidate:
    """A pattern under training: counts consistent (value, addr) pairs."""

    __slots__ = ("shift", "base", "confidence")

    def __init__(self, shift: int, base: int):
        self.shift = shift
        self.base = base
        self.confidence = 1


class IMPPrefetcher(Prefetcher):
    """Value-address correlating indirect prefetcher.

    Parameters
    ----------
    shifts:
        Candidate element-size shifts to try (4 B and 8 B elements).
    confirm:
        Consistent pairs required before a pattern activates.
    lookahead:
        How many index values ahead of the current one to chase.
    table_size:
        Max concurrently tracked/learned patterns (LRU).
    """

    name = "imp"

    def __init__(
        self,
        shifts: tuple[int, ...] = (2, 3),
        confirm: int = 4,
        lookahead: int = 16,
        table_size: int = 4,
        line_size: int = 64,
    ):
        if confirm <= 0 or lookahead <= 0 or table_size <= 0:
            raise ValueError("IMP parameters must be positive")
        self.shifts = shifts
        self.confirm = confirm
        self.lookahead = lookahead
        self.table_size = table_size
        self.line_size = line_size
        self._recent_values: list[int] = []  # sliding window of index values
        # Both tables are in LRU order (first key least recently used).
        self._candidates: dict[tuple[int, int], _Candidate] = {}
        self._patterns: dict[tuple[int, int], IndirectPattern] = {}
        self.patterns_learned = 0

    # ------------------------------------------------------------------
    # Training inputs
    # ------------------------------------------------------------------
    def best_pattern(self) -> IndirectPattern | None:
        """The most-confirmed active pattern (what IMP actually chases)."""
        if not self._patterns:
            return None
        return max(self._patterns.values(), key=lambda p: p.hits)

    def observe_index_values(self, values) -> list[int]:
        """Feed index (neighbor-ID) values seen by streaming loads.

        Returns prefetch candidate *lines* chased through the strongest
        active pattern, capped at ``lookahead`` per call.  Chasing every
        half-confirmed pattern floods the bus — real IMP tracks one
        indirect pattern per index stream.
        """
        out: list[int] = []
        values = [int(v) for v in values]
        if not values:
            return out
        self._recent_values.extend(values)
        if len(self._recent_values) > 4 * self.lookahead:
            self._recent_values = self._recent_values[-4 * self.lookahead :]
        pattern = self.best_pattern()
        if pattern is None:
            return out
        for value in values[-self.lookahead :]:
            addr = pattern.base + (value << pattern.shift)
            out.append(addr // self.line_size)
        return out

    def observe_miss(
        self, line: int, kind: DataType, is_structure: bool, core: int
    ) -> list[int]:
        """Correlate a demand-miss address against recent index values."""
        if is_structure or not self._recent_values:
            return []
        addr = line * self.line_size
        patterns = self._patterns
        candidates = self._candidates
        # Try to explain this miss as base + (v << shift) for a recent v.
        for value in self._recent_values[-self.lookahead :]:
            for shift in self.shifts:
                base = addr - (value << shift)
                if base < 0:
                    continue
                key = (shift, base & ~(self.line_size - 1))
                if key in patterns:
                    pattern = patterns.pop(key)
                    patterns[key] = pattern
                    pattern.hits += 1
                    # Refine the base estimate: line-truncated miss
                    # addresses give base estimates in
                    # (true_base - line, true_base]; the max converges.
                    if base > pattern.base:
                        pattern.base = base
                    continue
                cand = candidates.get(key)
                if cand is None:
                    candidates[key] = _Candidate(shift, base)
                    if len(candidates) > 8 * self.table_size:
                        del candidates[next(iter(candidates))]
                else:
                    cand.confidence += 1
                    if base > cand.base:
                        cand.base = base
                    if cand.confidence >= self.confirm:
                        self._promote(key, cand)
        return []

    def _promote(self, key: tuple[int, int], cand: _Candidate) -> None:
        self._candidates.pop(key, None)
        self._patterns[key] = IndirectPattern(cand.shift, cand.base)
        self.patterns_learned += 1
        if len(self._patterns) > self.table_size:
            del self._patterns[next(iter(self._patterns))]

    @property
    def active_patterns(self) -> int:
        """Number of currently active (confirmed) patterns."""
        return len(self._patterns)

    def reset(self) -> None:
        """Forget all values, candidates and learned patterns."""
        self._recent_values.clear()
        self._candidates.clear()
        self._patterns.clear()
