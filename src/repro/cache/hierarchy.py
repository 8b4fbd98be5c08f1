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

from ..trace.record import DataType
from .cache import Cache, CacheConfig

__all__ = ["CacheHierarchy", "HierarchyEvent", "AccessOutcome"]


@dataclass(frozen=True)
class HierarchyEvent:
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
        #: Optional :class:`repro.prefetch.stats.PollutionTracker` —
        #: attached for attribution-enabled runs; purely observational.
        self.pollution = None
        self._pf_issuer: str | None = None
        #: Optional poison hook, one set per core: when set (by the
        #: batch-replay engine), each L1 line dropped for inclusion, each
        #: L1 victim of a prefetch fill and each line a prefetch fills
        #: into the L1 is recorded in its core's set, so the engine can
        #: void that core's guaranteed-hit predictions for it.
        self.l1_inval_logs: list[set[int]] | None = None

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _note_eviction(self, line: int, meta, level: str, by_prefetch: bool = False) -> None:
        if meta.prefetched:
            kind = "evict_pf" if meta.used else "evict_unused_pf"
            self.events.append(HierarchyEvent(kind, line, level))
        if by_prefetch and self.pollution is not None:
            self.pollution.on_prefetch_eviction(level, line, self._pf_issuer)

    def _fill_l1(self, core: int, line: int, kind: DataType, dirty: bool, pf: bool) -> None:
        victim = self.l1s[core].insert(line, kind, dirty=dirty, prefetched=pf)
        if self.pollution is not None:
            self.pollution.on_fill("L1", line)
        if pf and self.l1_inval_logs is not None:
            # The replay engine's guaranteed-hit filter sees neither the
            # prefetched line nor the L1 victim it displaces.
            poison = self.l1_inval_logs[core]
            poison.add(line)
            if victim is not None:
                poison.add(victim[0])
        if victim is None:
            return
        vline, vmeta = victim
        self._note_eviction(vline, vmeta, "L1", by_prefetch=pf)
        if vmeta.dirty:
            self._merge_dirty_below(core, vline)

    def _fill_l2(self, core: int, line: int, kind: DataType, pf: bool) -> None:
        if self.l2s is None:
            return
        victim = self.l2s[core].insert(line, kind, prefetched=pf)
        if self.pollution is not None:
            self.pollution.on_fill("L2", line)
        if victim is None:
            return
        vline, vmeta = victim
        self._note_eviction(vline, vmeta, "L2", by_prefetch=pf)
        # Inclusion: the L1 above must drop the line too.
        l1_meta = self.l1s[core].invalidate(vline)
        if l1_meta is not None and self.l1_inval_logs is not None:
            self.l1_inval_logs[core].add(vline)
        dirty = vmeta.dirty or (l1_meta is not None and l1_meta.dirty)
        if dirty:
            self._merge_dirty_l3(vline)

    def _fill_l3(self, line: int, kind: DataType, pf: bool) -> None:
        victim = self.l3.insert(line, kind, prefetched=pf)
        if self.pollution is not None:
            self.pollution.on_fill("L3", line)
        if victim is None:
            return
        vline, vmeta = victim
        self._note_eviction(vline, vmeta, "L3", by_prefetch=pf)
        dirty = vmeta.dirty
        # Inclusion: back-invalidate every private cache.
        for core in range(self.num_cores):
            m1 = self.l1s[core].invalidate(vline)
            if m1 is not None:
                if self.l1_inval_logs is not None:
                    self.l1_inval_logs[core].add(vline)
                if m1.dirty:
                    dirty = True
            if self.l2s is not None:
                m2 = self.l2s[core].invalidate(vline)
                if m2 is not None and m2.dirty:
                    dirty = True
        if dirty:
            self.events.append(HierarchyEvent("writeback", vline, "L3"))

    def _merge_dirty_below(self, core: int, line: int) -> None:
        """Push a dirty L1 victim's dirtiness into the level that holds it."""
        if self.l2s is not None:
            meta = self.l2s[core].lookup(line, update_lru=False)
            if meta is not None:
                meta.dirty = True
                return
        self._merge_dirty_l3(line)

    def _merge_dirty_l3(self, line: int) -> None:
        meta = self.l3.lookup(line, update_lru=False)
        if meta is not None:
            meta.dirty = True
        else:
            # Inclusion violated only transiently during a back-invalidate
            # cascade; treat as an immediate writeback.
            self.events.append(HierarchyEvent("writeback", line, "L3"))

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
                self._fill_l1(core, line, kind, dirty=is_store, pf=False)
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
            self._fill_l2(core, line, kind, pf=False)
            self._fill_l1(core, line, kind, dirty=is_store, pf=False)
            return AccessOutcome("L3", meta.prefetched, first)
        self.l3.stats.record(kind, hit=False)
        if pollution is not None:
            pollution.on_demand_miss("L3", line, kind)

        # Serviced by DRAM: install everywhere on the refill path.
        self._fill_l3(line, kind, pf=False)
        self._fill_l2(core, line, kind, pf=False)
        self._fill_l1(core, line, kind, dirty=is_store, pf=False)
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
        self._pf_issuer = issuer
        self._fill_l3(line, kind, pf=True)
        self._fill_l2(core, line, kind, pf=True)
        if into_l1:
            self._fill_l1(core, line, kind, dirty=False, pf=True)

    def copy_to_l2(
        self, core: int, line: int, kind: DataType, issuer: str | None = None
    ) -> None:
        """LLC→L2 copy of an already on-chip line (DROPLET's on-chip path)."""
        if self.l3.contains(line):
            self._pf_issuer = issuer
            self._fill_l2(core, line, kind, pf=True)

    def on_chip(self, line: int) -> bool:
        """Coherence-engine probe: is the line anywhere on chip?

        With an inclusive LLC a single L3 probe suffices.
        """
        return self.l3.contains(line)

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
