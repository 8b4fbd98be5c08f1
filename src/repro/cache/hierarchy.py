"""Three-level inclusive cache hierarchy (paper Table I).

Private per-core L1 and L2, shared L3, inclusive at all levels with
back-invalidation on lower-level eviction, writeback + write-allocate.
The L2 level is optional: the paper's Fig. 4b includes an architecture
with no private L2 at all ("an architecture without private L2 caches is
just as fine for graph processing").

The hierarchy handles residency and pollution; *timing* (latency of a
serviced access, prefetch timeliness) is layered on top by
:mod:`repro.system.machine` so that alternative timing models can reuse
the same residency model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..trace.record import DataType
from .cache import Cache, CacheConfig, CacheLine

__all__ = ["CacheHierarchy", "HierarchyEvent", "AccessOutcome"]


class HierarchyEvent(NamedTuple):
    """Side-effect record drained by the machine after each access.

    ``kind`` is one of:

    * ``"writeback"``        — a dirty line left the chip (DRAM bus traffic),
    * ``"evict_unused_pf"``  — a prefetched line was evicted untouched
      (counts against the issuing prefetcher's accuracy),
    * ``"evict_pf"``         — a prefetched line was evicted after use.
    """

    kind: str
    line: int
    level: str


#: Builds a :class:`HierarchyEvent` from a ``(kind, line, level)`` tuple
#: without the generated ``__new__``'s Python frame (the fill core's
#: per-eviction cost).
_new_event = tuple.__new__


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one demand access."""

    level: str  # "L1" | "L2" | "L3" | "DRAM"
    prefetched: bool  # serviced by a line brought in by a prefetcher
    first_use_of_prefetch: bool


class CacheHierarchy:
    """Inclusive L1/L2/L3 residency model for ``num_cores`` cores."""

    def __init__(
        self,
        l1_config: CacheConfig,
        l2_config: CacheConfig | None,
        l3_config: CacheConfig,
        num_cores: int = 1,
    ):
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        self.num_cores = num_cores
        self.l1s = [Cache(_named(l1_config, "L1", c)) for c in range(num_cores)]
        self.l2s = (
            [Cache(_named(l2_config, "L2", c)) for c in range(num_cores)]
            if l2_config is not None
            else None
        )
        self.l3 = Cache(_named(l3_config, "L3", None))
        self.line_size = l3_config.line_size
        self.events: list[HierarchyEvent] = []
        #: Whether every prefetched-line eviction becomes an event.  When
        #: cleared (a machine without a telemetry session, the only
        #: reader of the rest), only writebacks and L3 ``evict_unused_pf``
        #: events, which DRAM and the prefetch ledger act on, are kept.
        self.trace_evictions = True
        #: Optional :class:`repro.prefetch.stats.PollutionTracker` —
        #: attached for attribution-enabled runs; purely observational.
        self.pollution = None
        self._pf_issuer: str | None = None
        #: Optional poison hook, one set per core: when set (by the
        #: batch-replay engine), each L1 line dropped for inclusion, each
        #: line a prefetch fills into the L1 and each L1 victim of a fill
        #: that asks for it (see :meth:`_fill_l1`) is recorded in its
        #: core's set, so the engine can void that core's guaranteed-hit
        #: predictions for it; a demand refill of a line clears its entry.
        self.l1_inval_logs: list[set[int]] | None = None

    # ------------------------------------------------------------------
    # Fill core
    # ------------------------------------------------------------------
    # Every fill on either replay path goes through these three methods:
    # the refills of ``demand_access`` and of the batch-replay engine's
    # cascade, stream and MPP prefetch fills, and LLC→L2 copies.  They
    # work on each Cache's raw set dictionaries (``Cache.insert`` and
    # ``Cache.invalidate`` inlined, in the sets' LRU order: first key
    # least recently used) and count as they go.  A fill into a
    # full set reuses its LRU victim's record for the incoming line, so
    # a new CacheLine is built only for a free way (a cold set, or one a
    # back-invalidation opened); the victim's flags live on in locals.

    def _fill_l1(
        self, core: int, line: int, kind: int, dirty: bool, pf: bool,
        poison_victim: bool,
    ) -> None:
        """Install ``line`` in ``core``'s L1; a dirty victim merges below.

        With poison logging on, a prefetch fill poisons its line, a
        demand refill clears it, and ``poison_victim`` poisons the victim
        (prefetch fills, and the demand fills of setups that prefetch
        into the L1).
        """
        l1 = self.l1s[core]
        s = l1._sets[line % l1._num_sets]
        vline = None
        if line in s:
            meta = s.pop(line)
            s[line] = meta
            meta.dirty = meta.dirty or dirty
        else:
            if len(s) >= l1._assoc:
                vline = next(iter(s))
                meta = s.pop(vline)
                vdirty = meta.dirty
                vpf = meta.prefetched
                vused = meta.used
                meta.dirty = dirty
                meta.prefetched = pf
                meta.kind = kind
                meta.used = False
                s[line] = meta
            else:
                s[line] = CacheLine(dirty, pf, kind)
            if pf:
                l1.stats.prefetch_fills += 1
        pollution = self.pollution
        if pollution is not None:
            pollution.on_fill("L1", line)
        logs = self.l1_inval_logs
        if logs is not None:
            poison = logs[core]
            if pf:
                poison.add(line)
            else:
                poison.discard(line)
            if poison_victim and vline is not None:
                poison.add(vline)
        if vline is None:
            return
        l1.stats.evictions += 1
        if vpf and self.trace_evictions:
            ev = "evict_pf" if vused else "evict_unused_pf"
            self.events.append(_new_event(HierarchyEvent, (ev, vline, "L1")))
        if pf and pollution is not None:
            pollution.on_prefetch_eviction("L1", vline, self._pf_issuer)
        if vdirty:
            # The dirtiness moves to the level that holds the line.
            if self.l2s is not None:
                l2 = self.l2s[core]
                m2 = l2._sets[vline % l2._num_sets].get(vline)
                if m2 is not None:
                    m2.dirty = True
                    return
            self._merge_dirty_l3(vline)

    def _fill_l2(self, core: int, line: int, kind: int, pf: bool) -> None:
        """Install ``line`` in ``core``'s L2 (no-op without an L2)."""
        if self.l2s is None:
            return
        l2 = self.l2s[core]
        s = l2._sets[line % l2._num_sets]
        vline = None
        if line in s:
            s[line] = s.pop(line)
        else:
            if len(s) >= l2._assoc:
                vline = next(iter(s))
                meta = s.pop(vline)
                vdirty = meta.dirty
                vpf = meta.prefetched
                vused = meta.used
                meta.dirty = False
                meta.prefetched = pf
                meta.kind = kind
                meta.used = False
                s[line] = meta
            else:
                s[line] = CacheLine(False, pf, kind)
            if pf:
                l2.stats.prefetch_fills += 1
        pollution = self.pollution
        if pollution is not None:
            pollution.on_fill("L2", line)
        if vline is None:
            return
        l2.stats.evictions += 1
        if vpf and self.trace_evictions:
            ev = "evict_pf" if vused else "evict_unused_pf"
            self.events.append(_new_event(HierarchyEvent, (ev, vline, "L2")))
        if pf and pollution is not None:
            pollution.on_prefetch_eviction("L2", vline, self._pf_issuer)
        # Inclusion: the L1 above must drop the line too.
        l1 = self.l1s[core]
        m1 = l1._sets[vline % l1._num_sets].pop(vline, None)
        if m1 is not None:
            l1.stats.back_invalidations += 1
            if self.l1_inval_logs is not None:
                self.l1_inval_logs[core].add(vline)
            vdirty = vdirty or m1.dirty
        if vdirty:
            self._merge_dirty_l3(vline)

    def _fill_l3(self, line: int, kind: int, pf: bool) -> None:
        """Install ``line`` in the shared L3; the victim leaves the chip."""
        l3 = self.l3
        s = l3._sets[line % l3._num_sets]
        vline = None
        if line in s:
            s[line] = s.pop(line)
        else:
            if len(s) >= l3._assoc:
                vline = next(iter(s))
                meta = s.pop(vline)
                vdirty = meta.dirty
                vpf = meta.prefetched
                vused = meta.used
                meta.dirty = False
                meta.prefetched = pf
                meta.kind = kind
                meta.used = False
                s[line] = meta
            else:
                s[line] = CacheLine(False, pf, kind)
            if pf:
                l3.stats.prefetch_fills += 1
        pollution = self.pollution
        if pollution is not None:
            pollution.on_fill("L3", line)
        if vline is None:
            return
        l3.stats.evictions += 1
        # The prefetch ledger claims unused prefetches evicted here.
        if vpf and (self.trace_evictions or not vused):
            ev = "evict_pf" if vused else "evict_unused_pf"
            self.events.append(_new_event(HierarchyEvent, (ev, vline, "L3")))
        if pf and pollution is not None:
            pollution.on_prefetch_eviction("L3", vline, self._pf_issuer)
        # Inclusion: back-invalidate every private cache.
        logs = self.l1_inval_logs
        for core, l1 in enumerate(self.l1s):
            m = l1._sets[vline % l1._num_sets].pop(vline, None)
            if m is not None:
                l1.stats.back_invalidations += 1
                if logs is not None:
                    logs[core].add(vline)
                vdirty = vdirty or m.dirty
            if self.l2s is not None:
                l2 = self.l2s[core]
                m = l2._sets[vline % l2._num_sets].pop(vline, None)
                if m is not None:
                    l2.stats.back_invalidations += 1
                    vdirty = vdirty or m.dirty
        if vdirty:
            self.events.append(_new_event(HierarchyEvent, ("writeback", vline, "L3")))

    def _merge_dirty_l3(self, line: int) -> None:
        """Mark the L3 copy of ``line`` dirty, else write the line back."""
        l3 = self.l3
        meta = l3._sets[line % l3._num_sets].get(line)
        if meta is not None:
            meta.dirty = True
        else:
            # Inclusion violated only transiently during a back-invalidate
            # cascade; treat as an immediate writeback.
            self.events.append(_new_event(HierarchyEvent, ("writeback", line, "L3")))

    @staticmethod
    def _touch(meta) -> bool:
        """Mark a serviced line used; returns True on first prefetch use."""
        first = meta.prefetched and not meta.used
        meta.used = True
        return first

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def demand_access(
        self, core: int, line: int, kind: DataType, is_store: bool = False
    ) -> AccessOutcome:
        """One demand load/store; returns the servicing level.

        Fills are inclusive: a DRAM service installs the line at every
        level of this core's path.
        """
        l1 = self.l1s[core]
        meta = l1.lookup(line)
        if meta is not None:
            l1.stats.record(kind, hit=True)
            first = self._touch(meta)
            if meta.prefetched:
                l1.stats.prefetch_hits += 1
            if is_store:
                meta.dirty = True
            return AccessOutcome("L1", meta.prefetched, first)
        l1.stats.record(kind, hit=False)
        kind = int(kind)
        pollution = self.pollution
        if pollution is not None:
            pollution.on_demand_miss("L1", line, kind)

        if self.l2s is not None:
            l2 = self.l2s[core]
            meta = l2.lookup(line)
            if meta is not None:
                l2.stats.record(kind, hit=True)
                first = self._touch(meta)
                if meta.prefetched:
                    l2.stats.prefetch_hits += 1
                # Demand-initiated refills do not carry the prefetch
                # flag upward: usefulness was credited at first touch.
                self._fill_l1(core, line, kind, is_store, False, False)
                return AccessOutcome("L2", meta.prefetched, first)
            l2.stats.record(kind, hit=False)
            if pollution is not None:
                pollution.on_demand_miss("L2", line, kind)

        meta = self.l3.lookup(line)
        if meta is not None:
            self.l3.stats.record(kind, hit=True)
            first = self._touch(meta)
            if meta.prefetched:
                self.l3.stats.prefetch_hits += 1
            self._fill_l2(core, line, kind, False)
            self._fill_l1(core, line, kind, is_store, False, False)
            return AccessOutcome("L3", meta.prefetched, first)
        self.l3.stats.record(kind, hit=False)
        if pollution is not None:
            pollution.on_demand_miss("L3", line, kind)

        # Serviced by DRAM: install everywhere on the refill path.
        self._fill_l3(line, kind, False)
        self._fill_l2(core, line, kind, False)
        self._fill_l1(core, line, kind, is_store, False, False)
        return AccessOutcome("DRAM", False, False)

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------
    def prefetch_fill(
        self,
        core: int,
        line: int,
        kind: DataType,
        into_l1: bool = False,
        issuer: str | None = None,
    ) -> None:
        """Install a prefetched line (L2+L3, optionally L1 for mono-L1).

        ``issuer`` names the prefetch engine for pollution attribution;
        it is only read when a :class:`PollutionTracker` is attached.
        """
        kind = int(kind)
        self._pf_issuer = issuer
        self._fill_l3(line, kind, True)
        self._fill_l2(core, line, kind, True)
        if into_l1:
            self._fill_l1(core, line, kind, False, True, True)

    def copy_to_l2(
        self, core: int, line: int, kind: DataType, issuer: str | None = None
    ) -> bool:
        """LLC→L2 copy of an already on-chip line (DROPLET's on-chip path).

        Returns whether the line was on chip, i.e. whether it was copied.
        """
        l3 = self.l3
        if line not in l3._sets[line % l3._num_sets]:
            return False
        self._pf_issuer = issuer
        self._fill_l2(core, line, int(kind), True)
        return True

    def on_chip(self, line: int) -> bool:
        """Coherence-engine probe: is the line anywhere on chip?

        With an inclusive LLC a single L3 probe suffices.
        """
        l3 = self.l3
        return line in l3._sets[line % l3._num_sets]

    def drain_events(self) -> list[HierarchyEvent]:
        """Return and clear accumulated side-effect events."""
        events = self.events
        self.events = []
        return events

    def register_telemetry(self, registry, prefix: str = "cache") -> None:
        """Register every level's stats: ``cache.l1.<core>``, ``cache.l2.
        <core>``, ``cache.l3``, plus L2 aggregates across cores (used by
        the exporters' interval L2-hit-rate)."""
        for core, l1 in enumerate(self.l1s):
            l1.stats.register_telemetry(registry, "%s.l1.%d" % (prefix, core))
        if self.l2s is not None:
            for core, l2 in enumerate(self.l2s):
                l2.stats.register_telemetry(registry, "%s.l2.%d" % (prefix, core))
            registry.gauge(
                prefix + ".l2.hits",
                lambda: sum(l2.stats.total_hits for l2 in self.l2s),
            )
            registry.gauge(
                prefix + ".l2.misses",
                lambda: sum(l2.stats.total_misses for l2 in self.l2s),
            )
        self.l3.stats.register_telemetry(registry, prefix + ".l3")


def _named(config: CacheConfig, level: str, core: int | None) -> CacheConfig:
    name = level if core is None else "%s.%d" % (level, core)
    return CacheConfig(
        name=name,
        size_bytes=config.size_bytes,
        associativity=config.associativity,
        line_size=config.line_size,
        data_latency=config.data_latency,
        tag_latency=config.tag_latency,
    )
