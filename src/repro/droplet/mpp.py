"""Memory-Controller-based Property Prefetcher (MPP) — paper §V-C2.

The MPP reacts to *structure prefetch* cache lines arriving from DRAM:
the PAG scans each line for neighbor IDs and generates property virtual
addresses (into the VAB), the MTLB translates them (into the PAB), and
each physical address is checked against the coherence engine:

* **off-chip** → queue a DRAM property prefetch, fill LLC + requester L2;
* **on-chip**  → copy the line from the inclusive LLC into the L2.

The decoupling is the point: the property address is computed the moment
the structure line reaches the MC, overlapping its refill path through
the caches (Fig. 8).

``MPP1`` (Table V) is the variant that can identify structure lines by
itself (address-range check) rather than trusting the C-bit — needed
when the streamer is not data-aware (``streamMPP1``) or when the whole
prefetcher sits at the L1 (``monoDROPLETL1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..memory.allocator import GraphLayout
from ..memory.pagetable import PageTable
from .mtlb import MTLB
from .pag import PAG, PAGConfig

__all__ = ["MPP", "MPPConfig"]


@dataclass(frozen=True)
class MPPConfig:
    """MPP hardware parameters (paper Table V)."""

    vab_entries: int = 512
    pab_entries: int = 512
    mtlb_entries: int = 128
    pag: PAGConfig = field(default_factory=PAGConfig)
    coherence_check_latency: int = 10
    #: Whether the MPP can classify a fill as structure by itself (MPP1).
    identifies_structure: bool = False


class MPP:
    """The MC-based property prefetcher pipeline."""

    def __init__(
        self,
        page_table: PageTable,
        config: MPPConfig | None = None,
        line_size: int = 64,
    ):
        self.config = config or MPPConfig()
        self.line_size = line_size
        self.pag = PAG(self.config.pag)
        self.mtlb = MTLB(page_table, entries=self.config.mtlb_entries)
        self._layout: GraphLayout | None = None
        self.structure_fills_seen = 0
        self.requests_generated = 0
        self.vab_overflows = 0
        #: Optional telemetry session (set by the machine when profiling)
        #: used to emit per-translation drop/walk events.
        self.telemetry = None

    def configure_from_layout(
        self, layout: GraphLayout, property_names: str | tuple[str, ...]
    ) -> None:
        """Wire the PAG registers and remember the layout for MPP1 checks.

        ``property_names`` may name several arrays (multi-property graphs,
        paper §VI): the PAG then emits one address per array per ID.
        """
        self.pag.configure_from_layout(layout, property_names)
        self._layout = layout

    def register_telemetry(self, registry, prefix: str = "droplet.mpp") -> None:
        """Expose MPP pipeline counters plus the MTLB under ``prefix``."""
        registry.gauge(
            prefix + ".structure_fills", lambda: self.structure_fills_seen
        )
        registry.gauge(prefix + ".requests", lambda: self.requests_generated)
        registry.gauge(prefix + ".vab_overflows", lambda: self.vab_overflows)
        self.mtlb.register_telemetry(registry, prefix + ".mtlb")

    def classifies_as_structure(self, line: int) -> bool:
        """MPP1's own structure identification (address-range check)."""
        if not self.config.identifies_structure or self._layout is None:
            return False
        return self._layout.is_structure_line(line * self.line_size, self.line_size)

    def scan_targets(self, line: int, core: int) -> dict[int, int]:
        """Process one structure prefetch fill; returns its chase targets.

        The result maps each distinct property line (physical line
        number) to its issue delay, the MC-side latency between the
        structure fill arriving and the request being ready to
        check/issue (PAG scan + translation + coherence check).  Lines
        appear in the order of their first scanned address, and each
        keeps that address's delay.  An unconfigured PAG or a line
        holding no IDs yields ``{}``.

        The caller (machine/MC) is responsible for deciding the fill was
        a structure prefetch — via the C-bit, or via
        :meth:`classifies_as_structure` for MPP1 setups.
        """
        if not self.pag.configured:
            return {}
        self.structure_fills_seen += 1
        vaddrs = self.pag.scan(line * self.line_size, self.line_size)
        if len(vaddrs) > self.config.vab_entries:
            self.vab_overflows += 1
            vaddrs = vaddrs[: self.config.vab_entries]
        if len(vaddrs) == 0:
            return {}
        line_size = self.line_size
        base_delay = self.config.pag.scan_latency + self.config.coherence_check_latency
        mtlb = self.mtlb
        tlb = mtlb._tlb
        cache = tlb._cache
        cache_get = cache.get
        page_size = tlb.page_table.page_size
        # Steady state: every scanned property page is already in the
        # MTLB, so every walk latency is zero and nothing is dropped.
        # Fused translate + dedup over the batch: pure reads until the
        # whole batch is known to hit, so bailing out to the exact
        # per-address path below leaves no state behind.
        frames: dict[int, int] = {}
        last: dict[int, int] = {}
        targets: dict[int, int] = {}
        all_hit = True
        for idx, vaddr in enumerate(vaddrs):
            page = vaddr // page_size
            frame_base = frames.get(page)
            if frame_base is None:
                entry = cache_get(page)
                if entry is None or entry.is_structure:
                    all_hit = False
                    break
                frame_base = entry.frame * page_size
                frames[page] = frame_base
            last[page] = idx
            targets[(frame_base + vaddr % page_size) // line_size] = base_delay
        if all_hit:
            tlb.stats.hits += len(vaddrs)
            # LRU refresh: re-inserting each page once, in order of its
            # *last* occurrence, yields the same final recency order as
            # the per-address calls (all hits, so no eviction can
            # observe any intermediate order).
            if len(last) == 1:
                page = next(iter(last))
                cache[page] = cache.pop(page)
            else:
                for page in sorted(last, key=last.__getitem__):
                    cache[page] = cache.pop(page)
            self.requests_generated += len(targets)
            return targets
        # Any MTLB miss, fault, or (defensive) cached structure entry:
        # translate address by address, each line keeping the delay of
        # its first address.
        tel = self.telemetry
        targets = {}
        for vaddr in vaddrs:
            result = mtlb.translate_property(vaddr)
            if result is None:
                if tel is not None:
                    tel.emit(
                        None,
                        "prefetch_drop",
                        core=core,
                        dtype="property",
                        detail="mtlb_fault",
                    )
                continue  # dropped on page fault
            paddr, walk_latency = result
            if tel is not None and walk_latency > 0:
                tel.emit(None, "tlb_walk", core=core, dtype="property")
            pline = paddr // line_size
            if pline not in targets:  # one request per distinct line
                targets[pline] = base_delay + walk_latency
        self.requests_generated += len(targets)
        return targets
