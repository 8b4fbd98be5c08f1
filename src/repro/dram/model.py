"""DRAM timing model: banked device with queueing delay.

Table I specifies "DDR3, device access latency ~45 ns, queue delay
modeled".  We model a bank-partitioned device: each line maps to a bank
by address, a bank serves one request at a time, and a request arriving
while its bank is busy queues behind it.  Bursts of simultaneous misses
therefore see growing queue delays — the "queue delay modeled" behaviour
— while an isolated access sees the bare device latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DRAMModel", "DRAMConfig", "DRAMStats"]


@dataclass(frozen=True)
class DRAMConfig:
    """DRAM timing/geometry parameters.

    ``device_latency`` defaults to 45 ns at the paper's 2.66 GHz core
    clock (~120 cycles).  ``bank_busy`` is the per-request bank occupancy
    (row cycle time), which sets how quickly queueing builds up.
    """

    device_latency: int = 120
    bank_busy: int = 40
    num_banks: int = 16
    line_size: int = 64

    def __post_init__(self) -> None:
        if min(self.device_latency, self.bank_busy, self.num_banks, self.line_size) <= 0:
            raise ValueError("DRAM parameters must be positive")


@dataclass
class DRAMStats:
    """Traffic counters for bandwidth accounting (Fig. 15)."""

    demand_reads: int = 0
    prefetch_reads: int = 0
    writebacks: int = 0
    total_queue_delay: int = 0

    @property
    def bus_accesses(self) -> int:
        """All bus transactions (reads + writebacks)."""
        return self.demand_reads + self.prefetch_reads + self.writebacks

    def bpki(self, instructions: int) -> float:
        """Bus accesses per kilo-instruction."""
        return 1000.0 * self.bus_accesses / instructions if instructions else 0.0

    def bytes_transferred(self, line_size: int = 64) -> int:
        """Total bytes moved over the DRAM bus."""
        return self.bus_accesses * line_size

    def register_telemetry(self, registry, prefix: str) -> None:
        """Expose traffic counters as pull-gauges under ``prefix``."""
        registry.gauge(prefix + ".demand_reads", lambda: self.demand_reads)
        registry.gauge(prefix + ".prefetch_reads", lambda: self.prefetch_reads)
        registry.gauge(prefix + ".writebacks", lambda: self.writebacks)
        registry.gauge(prefix + ".queue_delay", lambda: self.total_queue_delay)
        registry.gauge(prefix + ".bus_accesses", lambda: self.bus_accesses)


class DRAMModel:
    """Bank-queued DRAM with a demand-priority (prefetch-aware) scheduler.

    The memory controller schedules demands ahead of prefetches — the
    priority use of the C-bit the paper's §V-C1 builds on [54].  Demands
    therefore queue only behind other demands on their bank, while
    prefetches queue behind *all* traffic.  Useless prefetch storms thus
    cost bandwidth (BPKI) and make prefetches late, but do not directly
    stall demand reads.
    """

    def __init__(self, config: DRAMConfig | None = None):
        self.config = config or DRAMConfig()
        self.stats = DRAMStats()
        self._demand_free_at: list[int] = [0] * self.config.num_banks
        self._any_free_at: list[int] = [0] * self.config.num_banks
        # Read on every access: plain attributes, not config lookups.
        self._num_banks = self.config.num_banks
        self._bank_busy = self.config.bank_busy
        self._device_latency = self.config.device_latency

    def _bank_of(self, line: int) -> int:
        return line % self._num_banks

    def access(self, line: int, now: int, is_prefetch: bool = False) -> int:
        """Issue a read for ``line`` at time ``now``; returns total latency.

        Latency = queue delay (bank busy) + device latency.  The bank is
        occupied for ``bank_busy`` cycles starting when the request is
        actually serviced.
        """
        if now < 0:
            raise ValueError("now must be non-negative")
        bank = line % self._num_banks
        stats = self.stats
        any_free_at = self._any_free_at
        if is_prefetch:
            start = any_free_at[bank]
            if now >= start:
                start = now
            any_free_at[bank] = start + self._bank_busy
            stats.prefetch_reads += 1
        else:
            start = self._demand_free_at[bank]
            if now >= start:
                start = now
            end = start + self._bank_busy
            self._demand_free_at[bank] = end
            if any_free_at[bank] < end:
                any_free_at[bank] = end
            stats.demand_reads += 1
        queue_delay = start - now
        stats.total_queue_delay += queue_delay
        return queue_delay + self._device_latency

    def register_telemetry(self, registry, prefix: str = "dram") -> None:
        """Register this channel's stats under ``prefix``."""
        self.stats.register_telemetry(registry, prefix)

    def writeback(self, line: int, now: int) -> None:
        """Account a dirty-line writeback (low priority, brief occupancy)."""
        bank = self._bank_of(line)
        start = max(now, self._any_free_at[bank])
        # Writebacks are scheduled opportunistically; charge half occupancy.
        self._any_free_at[bank] = start + self.config.bank_busy // 2
        self.stats.writebacks += 1

    def utilization(self, total_cycles: int, peak_bytes_per_cycle: float = 4.8) -> float:
        """Fraction of peak bandwidth consumed over ``total_cycles``.

        Default peak corresponds to ~12.8 GB/s DDR3 at a 2.66 GHz core
        clock.  Used by the Fig. 3 bandwidth-utilization experiment.
        """
        if total_cycles <= 0:
            return 0.0
        moved = self.stats.bytes_transferred(self.config.line_size)
        return moved / (total_cycles * peak_bytes_per_cycle)
