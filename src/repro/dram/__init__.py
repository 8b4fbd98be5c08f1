"""DRAM timing, multi-controller interleaving, bandwidth accounting."""

from .model import DRAMConfig, DRAMModel, DRAMStats
from .multichannel import MultiChannelDRAM

__all__ = [
    "DRAMConfig",
    "DRAMModel",
    "DRAMStats",
    "MultiChannelDRAM",
]
