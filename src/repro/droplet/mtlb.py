"""Near-memory TLB (MTLB) for the MC-based property prefetcher (§V-C3).

The MTLB caches only *property-page* mappings so the MPP can translate
generated property prefetch addresses near memory.  Its two special
behaviours versus a core-side TLB:

* a property prefetch whose translation page-faults is simply dropped
  (prefetches are hints — no fault handling), and
* TLB-shootdown coherence is *filtered*: only invalidations for pages
  whose extra bit is "0" (non-structure) are forwarded, since the MTLB
  can never hold structure mappings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.pagetable import PageFault, PageTable
from ..memory.tlb import TLB

__all__ = ["MTLB", "MTLBStats"]


@dataclass
class MTLBStats:
    """Shootdown filtering counters on top of the base TLB stats."""

    shootdowns_received: int = 0
    shootdowns_filtered: int = 0
    dropped_faults: int = 0


class MTLB:
    """Property-only near-memory TLB with filtered shootdowns."""

    def __init__(self, page_table: PageTable, entries: int = 128, walk_latency: int = 50):
        self._tlb = TLB(page_table, entries=entries, walk_latency=walk_latency)
        self.stats = MTLBStats()

    @property
    def tlb_stats(self):
        """Hit/miss statistics of the underlying TLB."""
        return self._tlb.stats

    def register_telemetry(self, registry, prefix: str = "droplet.mtlb") -> None:
        """Expose shootdown-filter counters plus the base TLB's stats."""
        registry.gauge(
            prefix + ".shootdowns_received", lambda: self.stats.shootdowns_received
        )
        registry.gauge(
            prefix + ".shootdowns_filtered", lambda: self.stats.shootdowns_filtered
        )
        registry.gauge(
            prefix + ".dropped_faults", lambda: self.stats.dropped_faults
        )
        self._tlb.stats.register_telemetry(registry, prefix + ".tlb")

    def translate_property(self, vaddr: int) -> tuple[int, int] | None:
        """Translate a property prefetch address.

        Returns ``(paddr, latency)`` or ``None`` when the page faults
        (the prefetch is dropped) or the page is structure-tagged (the
        MTLB never caches structure mappings; such a request indicates a
        mis-scan and is likewise dropped).
        """
        try:
            paddr, is_structure, latency = self._tlb.translate(vaddr)
        except PageFault:
            self.stats.dropped_faults += 1
            return None
        if is_structure:
            # Must not cache structure mappings: evict what the walk
            # brought in and drop the request.
            self._tlb.invalidate_page(self._tlb.page_table.page_of(vaddr))
            self.stats.dropped_faults += 1
            return None
        return paddr, latency

    def shootdown(self, page: int, extra_bit_structure: bool) -> bool:
        """Process a core-side TLB shootdown.

        Returns whether the invalidation was forwarded to the MTLB.  The
        filter (paper §V-C3): structure-page invalidations are skipped
        because the MTLB caches only property mappings.
        """
        self.stats.shootdowns_received += 1
        if extra_bit_structure:
            self.stats.shootdowns_filtered += 1
            return False
        self._tlb.invalidate_page(page)
        return True

    def __len__(self) -> int:
        return len(self._tlb)
