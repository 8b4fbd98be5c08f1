"""Prefetch usefulness accounting (paper Fig. 14 accuracy, Fig. 15 BPKI).

The ledger tracks every issued prefetch until it is either demanded
(useful — possibly *late* if the demand arrived before the fill) or
evicted untouched (useless).  Accuracy is per data type, because Fig. 14
reports structure and property accuracy separately.

:class:`PollutionTracker` completes the Srinath-style
timely/late/useless/**polluting** taxonomy: lines evicted by a prefetch
fill enter a bounded evicted-line shadow set per level, and a later
demand miss on such a line counts as a pollution miss against the
issuer whose prefetch displaced it.  Tracking is opt-in (enabled with
telemetry attribution) and purely observational — it never changes
residency or timing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..trace.record import DataType

__all__ = ["PrefetchLedger", "PrefetchCounters", "PollutionTracker"]


def _zero_by_type() -> dict[DataType, int]:
    return {dt: 0 for dt in DataType}


@dataclass
class PrefetchCounters:
    """Counters for one prefetch issuer."""

    issued: dict[DataType, int] = field(default_factory=_zero_by_type)
    useful: dict[DataType, int] = field(default_factory=_zero_by_type)
    late: dict[DataType, int] = field(default_factory=_zero_by_type)
    evicted_unused: dict[DataType, int] = field(default_factory=_zero_by_type)
    #: Demand misses caused by this issuer's prefetches evicting live
    #: lines (keyed by the data type of the *victim* that re-missed).
    polluting: dict[DataType, int] = field(default_factory=_zero_by_type)
    dropped: int = 0  # e.g. page-faulting MPP addresses

    @property
    def total_issued(self) -> int:
        """All issued prefetches."""
        return sum(self.issued.values())

    @property
    def total_useful(self) -> int:
        """All prefetches that serviced a demand before eviction."""
        return sum(self.useful.values())

    @property
    def total_polluting(self) -> int:
        """All demand misses this issuer's evictions caused."""
        return sum(self.polluting.values())

    def accuracy(self, kind: DataType | None = None) -> float:
        """Useful / issued, overall or for one data type."""
        if kind is None:
            issued = self.total_issued
            useful = self.total_useful
        else:
            issued = self.issued[kind]
            useful = self.useful[kind]
        return useful / issued if issued else 0.0

    def coverage(self, demand_misses: int, kind: DataType | None = None) -> float:
        """Useful prefetches over (useful + remaining demand misses)."""
        useful = self.total_useful if kind is None else self.useful[kind]
        denom = useful + demand_misses
        return useful / denom if denom else 0.0


@dataclass(slots=True)
class _LedgerEntry:
    issuer: str
    kind: DataType
    ready: float


class PollutionTracker:
    """Evicted-line shadow sets: demand misses caused by prefetch evictions.

    One bounded set per tracked cache level, sized to that level's line
    capacity (a line displaced longer ago than a full cache turnover is
    no longer the prefetcher's fault).  The hierarchy reports prefetch-
    caused evictions and demand misses into the tracker; pollution
    counters land in the evicting issuer's :class:`PrefetchCounters`.
    """

    def __init__(self, ledger: "PrefetchLedger", capacities: dict[str, int]):
        self.ledger = ledger
        # Each shadow set is a FIFO in eviction order, oldest first.  A
        # full set drops its oldest line on most inserts, so it is an
        # ``OrderedDict``: ``popitem(last=False)`` takes constant time,
        # where a plain dict's first key lies past the dummy slots that
        # earlier drops left behind.
        self._sets: dict[str, OrderedDict[int, str]] = {
            level: OrderedDict() for level in capacities
        }
        self._caps = dict(capacities)
        self.evictions: dict[str, int] = {level: 0 for level in capacities}
        self.misses: dict[str, int] = {level: 0 for level in capacities}

    def tracked_levels(self) -> list[str]:
        """The cache levels with a shadow set, nearest first."""
        return list(self._sets)

    def on_prefetch_eviction(self, level: str, line: int, issuer: str | None) -> None:
        """A prefetch fill at ``level`` displaced ``line``."""
        shadow = self._sets.get(level)
        if shadow is None:
            return
        self.evictions[level] += 1
        shadow.pop(line, None)
        shadow[line] = issuer or "unknown"
        if len(shadow) > self._caps[level]:
            shadow.popitem(last=False)

    def on_fill(self, level: str, line: int) -> None:
        """``line`` came back on chip at ``level`` before any demand miss."""
        shadow = self._sets.get(level)
        if shadow is not None:
            shadow.pop(line, None)

    def on_demand_miss(self, level: str, line: int, kind) -> bool:
        """A demand access missed at ``level``; was a prefetch to blame?"""
        shadow = self._sets.get(level)
        if shadow is None:
            return False
        issuer = shadow.pop(line, None)
        if issuer is None:
            return False
        self.misses[level] += 1
        self.ledger.counters_for(issuer).polluting[DataType(kind)] += 1
        return True

    def as_dict(self) -> dict:
        """JSON-safe summary for attribution reports."""
        return {
            "levels": {
                level: {
                    "prefetch_evictions": self.evictions[level],
                    "pollution_misses": self.misses[level],
                    "shadow_capacity": self._caps[level],
                    "shadow_occupancy": len(self._sets[level]),
                }
                for level in self._sets
            },
            "by_issuer": {
                issuer: {
                    dt.short_name: counters.polluting[dt] for dt in DataType
                }
                for issuer, counters in self.ledger.counters.items()
            },
        }


class PrefetchLedger:
    """In-flight + resident prefetch tracking keyed by line number."""

    def __init__(self) -> None:
        self.counters: dict[str, PrefetchCounters] = {}
        self._entries: dict[int, _LedgerEntry] = {}
        #: Optional :class:`PollutionTracker` (attribution-enabled runs).
        self.pollution: PollutionTracker | None = None

    def enable_pollution_tracking(
        self, capacities: dict[str, int]
    ) -> PollutionTracker:
        """Create (or return) the pollution tracker for this run."""
        if self.pollution is None:
            self.pollution = PollutionTracker(self, capacities)
        return self.pollution

    def counters_for(self, issuer: str) -> PrefetchCounters:
        """Counters of one issuer, created on first use."""
        if issuer not in self.counters:
            self.counters[issuer] = PrefetchCounters()
        return self.counters[issuer]

    def issue(self, line: int, kind: DataType, ready: float, issuer: str) -> None:
        """Record an issued prefetch and when its fill completes."""
        self.counters_for(issuer).issued[kind] += 1
        self._entries[line] = _LedgerEntry(issuer, kind, ready)

    def is_tracked(self, line: int) -> bool:
        """Whether ``line`` has an outstanding/unclaimed prefetch record."""
        return line in self._entries

    def ready_time(self, line: int) -> float | None:
        """Fill-completion time of the tracked prefetch for ``line``."""
        entry = self._entries.get(line)
        return entry.ready if entry else None

    def claim_demand(self, line: int, now: float) -> float:
        """A demand touched a prefetched line; returns residual latency.

        Residual latency is 0 for a timely prefetch, otherwise the cycles
        the demand still has to wait for the in-flight fill (the prefetch
        is then counted *late* but still useful).
        """
        entry = self._entries.pop(line, None)
        if entry is None:
            return 0.0
        counters = self.counters_for(entry.issuer)
        counters.useful[entry.kind] += 1
        residual = max(0.0, entry.ready - now)
        if residual > 0:
            counters.late[entry.kind] += 1
        return residual

    def claim_eviction(self, line: int) -> None:
        """A prefetched line was evicted without any demand touching it."""
        entry = self._entries.pop(line, None)
        if entry is None:
            return
        self.counters_for(entry.issuer).evicted_unused[entry.kind] += 1

    def drop(self, issuer: str) -> None:
        """Record a prefetch dropped before issue (e.g. page fault)."""
        self.counters_for(issuer).dropped += 1

    # ------------------------------------------------------------------
    def _totals(self) -> tuple[int, int, int, int, int]:
        issued = useful = late = evicted = dropped = 0
        for counters in self.counters.values():
            issued += counters.total_issued
            useful += counters.total_useful
            late += sum(counters.late.values())
            evicted += sum(counters.evicted_unused.values())
            dropped += counters.dropped
        return issued, useful, late, evicted, dropped

    def total_polluting(self, kind: DataType | None = None) -> int:
        """Pollution misses over all issuers (per victim type if given)."""
        if kind is None:
            return sum(c.total_polluting for c in self.counters.values())
        return sum(c.polluting[kind] for c in self.counters.values())

    def register_telemetry(self, registry, prefix: str = "prefetch") -> None:
        """Aggregate gauges plus a collector for per-issuer splits.

        Issuers appear dynamically (``counters_for`` creates them on
        first use), so per-issuer names go through a snapshot-time
        collector rather than eager gauge registration.
        """
        registry.gauge(prefix + ".issued", lambda: self._totals()[0])
        registry.gauge(prefix + ".useful", lambda: self._totals()[1])
        registry.gauge(prefix + ".late", lambda: self._totals()[2])
        registry.gauge(prefix + ".evicted_unused", lambda: self._totals()[3])
        registry.gauge(prefix + ".dropped", lambda: self._totals()[4])
        registry.gauge(prefix + ".polluting", lambda: self.total_polluting())
        for dt in DataType:
            registry.gauge(
                "%s.polluting.%s" % (prefix, dt.short_name),
                lambda dt=dt: self.total_polluting(dt),
            )

        def collect() -> dict[str, float]:
            values: dict[str, float] = {}
            for issuer, counters in self.counters.items():
                base = "%s.%s" % (prefix, issuer)
                values[base + ".issued"] = counters.total_issued
                values[base + ".useful"] = counters.total_useful
                values[base + ".late"] = sum(counters.late.values())
                values[base + ".evicted_unused"] = sum(
                    counters.evicted_unused.values()
                )
                values[base + ".polluting"] = counters.total_polluting
                values[base + ".dropped"] = counters.dropped
            return values

        registry.add_collector(collect)
