"""Memory-hierarchy usage breakdown by data type (paper Fig. 7).

For each data type, the fraction of its demand accesses serviced at each
level (L1 / L2 / L3 / DRAM), read off a finished simulation's per-level
per-type hit counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..system.machine import SimResult
from ..trace.record import DataType

__all__ = ["UsageBreakdown", "hierarchy_usage"]


@dataclass(frozen=True)
class UsageBreakdown:
    """Service-level fractions for one data type."""

    kind: DataType
    fractions: dict[str, float]  # level -> fraction of this type's accesses


def hierarchy_usage(result: SimResult) -> dict[DataType, UsageBreakdown]:
    """Per-type service-level breakdown of a simulation (Fig. 7).

    L1 hits come from the (aggregated) private L1s, L2 hits from the
    private L2s, L3 hits from the shared LLC, and DRAM services are the
    LLC's demand misses.
    """
    h = result.hierarchy
    out: dict[DataType, UsageBreakdown] = {}
    for dt in DataType:
        l1 = sum(c.stats.hits[dt] for c in h.l1s)
        l2 = sum(c.stats.hits[dt] for c in h.l2s) if h.l2s is not None else 0
        l3 = h.l3.stats.hits[dt]
        dram = h.l3.stats.misses[dt]
        total = l1 + l2 + l3 + dram
        if total == 0:
            fractions = {"L1": 0.0, "L2": 0.0, "L3": 0.0, "DRAM": 0.0}
        else:
            fractions = {
                "L1": l1 / total,
                "L2": l2 / total,
                "L3": l3 / total,
                "DRAM": dram / total,
            }
        out[dt] = UsageBreakdown(dt, fractions)
    return out
