"""Multi-core simulation: interleaved replay of per-core traces.

The paper's platform is a quad-core with private L1/L2 and a shared LLC
+ memory controller (Table I); it notes (§III-A) that resource
utilization matches single-core behaviour for these workloads, which is
why the experiment harness defaults to one core.  This module provides
the quad-core mode for completeness: per-core traces (from
``Workload.run_partitioned``) replay through one shared
:class:`~repro.cache.hierarchy.CacheHierarchy` and DRAM, interleaved
window-by-window in per-core virtual time (the least-advanced core runs
next), so shared-LLC contention and bank contention across cores are
modelled.  The interleave is the machine's own replay driver
(:meth:`Machine._interleave`), so multi-core replay takes the same
batch fast path and scalar oracle as single-core replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.cycles import CycleStack
from ..droplet.composite import PrefetchSetup
from ..memory.allocator import GraphLayout
from ..trace.buffer import Trace
from ..trace.record import DataType
from .config import SystemConfig
from .machine import Machine

__all__ = ["MulticoreResult", "run_multicore"]


@dataclass
class MulticoreResult:
    """Aggregate outcome of one multi-core simulation."""

    per_core_cycles: list[float]
    per_core_stacks: list[CycleStack]
    instructions: int
    machine: Machine
    refs_by_type: dict[DataType, int] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        """Wall-clock cycles: the slowest core's virtual time."""
        return max(self.per_core_cycles) if self.per_core_cycles else 0.0

    @property
    def num_cores(self) -> int:
        """Number of simulated cores."""
        return len(self.per_core_cycles)

    @property
    def aggregate_ipc(self) -> float:
        """Total instructions over wall-clock cycles."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def llc_mpki(self) -> float:
        """Shared-LLC demand misses per kilo-instruction (all cores)."""
        return self.machine.hierarchy.l3.stats.mpki(self.instructions)

    def bpki(self) -> float:
        """DRAM bus accesses per kilo-instruction (all cores)."""
        return self.machine.dram.stats.bpki(self.instructions)

    def speedup_vs(self, baseline: "MulticoreResult") -> float:
        """Wall-clock speedup over another multi-core run."""
        return baseline.cycles / self.cycles if self.cycles else 0.0


def run_multicore(
    traces: list[Trace],
    config: SystemConfig | None = None,
    layout: GraphLayout | None = None,
    setup: PrefetchSetup | str = "none",
    chased_property: str | tuple[str, ...] | None = None,
) -> MulticoreResult:
    """Replay per-core traces through one shared machine.

    ``traces[i]`` runs on core ``traces[i].core`` (which must be unique
    and within the configured core count).
    """
    if not traces:
        raise ValueError("at least one trace is required")
    cores = [t.core for t in traces]
    if len(set(cores)) != len(cores):
        raise ValueError("traces must target distinct cores")
    config = config or SystemConfig.scaled_baseline(num_cores=max(cores) + 1)
    if max(cores) >= config.num_cores:
        raise ValueError(
            "trace targets core %d but the machine has %d cores"
            % (max(cores), config.num_cores)
        )
    machine = Machine(
        config=config, layout=layout, setup=setup, chased_property=chased_property
    )
    if machine.setup.imp_engine is not None:
        raise NotImplementedError(
            "the IMP comparison point is single-core only; use Machine.run"
        )
    results = machine._interleave(traces)
    ordered = [results[k] for k in sorted(range(len(traces)), key=cores.__getitem__)]
    return MulticoreResult(
        per_core_cycles=[r.cycles for r in ordered],
        per_core_stacks=[r.cycle_stack for r in ordered],
        instructions=sum(r.instructions for r in results),
        machine=machine,
        refs_by_type={
            dt: sum(r.refs_by_type[dt] for r in results) for dt in DataType
        },
    )
