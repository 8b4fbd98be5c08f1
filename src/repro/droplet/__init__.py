"""DROPLET: the data-aware decoupled prefetcher for graphs (paper §V)."""

from .area import AreaModel, OverheadReport
from .composite import (
    EXTENDED_CONFIG_NAMES,
    PREFETCH_CONFIG_NAMES,
    PrefetchSetup,
    make_prefetch_setup,
)
from .mpp import MPP, MPPConfig
from .mtlb import MTLB, MTLBStats
from .pag import PAG, PAGConfig

__all__ = [
    "AreaModel",
    "OverheadReport",
    "EXTENDED_CONFIG_NAMES",
    "PREFETCH_CONFIG_NAMES",
    "PrefetchSetup",
    "make_prefetch_setup",
    "MPP",
    "MPPConfig",
    "MTLB",
    "MTLBStats",
    "PAG",
    "PAGConfig",
]
