"""Full-system simulation: configuration, machine, runners."""

from .config import CACHE_SCALE, SystemConfig, cacti_llc_latency
from .machine import Machine, RegionClassifier, SimResult
from .multicore import MulticoreResult, run_multicore
from .runner import compare_setups, simulate

__all__ = [
    "CACHE_SCALE",
    "SystemConfig",
    "cacti_llc_latency",
    "Machine",
    "RegionClassifier",
    "SimResult",
    "MulticoreResult",
    "run_multicore",
    "compare_setups",
    "simulate",
]
