"""The six evaluated prefetcher configurations (paper §VII-A).

* ``none``          — no-prefetch baseline,
* ``ghb``           — L2 G/DC global history buffer,
* ``vldp``          — L2 variable length delta prefetcher,
* ``stream``        — conventional L2 streamer (snoops all L1 misses),
* ``streamMPP1``    — conventional streamer + MPP1 (self-identifying MPP),
* ``droplet``       — data-aware structure-only streamer + MPP (the paper's
  proposal: decoupled, prefetching into L2),
* ``monoDROPLETL1`` — data-aware streamer + MPP1 implemented monolithically
  at the L1 (the Ainsworth & Jones-like design point [40]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..prefetch.base import NullPrefetcher, Prefetcher
from ..prefetch.ghb import GHBPrefetcher
from ..prefetch.stream import DataAwareStreamer, StreamPrefetcher
from ..prefetch.vldp import VLDPPrefetcher
from .mpp import MPPConfig

__all__ = ["PrefetchSetup", "make_prefetch_setup", "PREFETCH_CONFIG_NAMES"]

#: Configuration names in the order Fig. 11 plots them.
PREFETCH_CONFIG_NAMES = (
    "none",
    "ghb",
    "vldp",
    "stream",
    "streamMPP1",
    "droplet",
    "monoDROPLETL1",
)

#: All constructible configurations, including the related-work IMP
#: comparison point the paper discusses but does not plot in Fig. 11,
#: and the FDP-throttled streamer (adaptive degree/distance) sensitivity
#: point.
EXTENDED_CONFIG_NAMES = PREFETCH_CONFIG_NAMES + ("imp", "adaptive")


@dataclass
class PrefetchSetup:
    """A fully specified prefetcher configuration for the machine."""

    name: str
    l2_prefetcher: Prefetcher
    use_mpp: bool = False
    mpp_config: MPPConfig = field(default_factory=MPPConfig)
    #: Prefetches (streamer and MPP) fill the L1 as well (mono-L1 design).
    fill_into_l1: bool = False
    #: Extra cycles before the MPP sees a structure line, modelling the
    #: refill path back up through L3 and L2 when the "MPP" logic sits at
    #: the L1 instead of at the MC (loss of decoupling).
    mpp_issue_penalty: int = 0
    #: What the MPP chases: ``"prefetch"`` (the paper's choice — property
    #: prefetches follow structure *prefetch* fills) or ``"demand"`` (the
    #: Table IV counterfactual: chase structure demand fills, which the
    #: paper argues arrives too late because dependency chains are short).
    mpp_trigger: str = "prefetch"
    #: Optional IMP engine (Yu et al. [70]) — the related-work comparison
    #: point: a monolithic L1 value-address-correlating indirect
    #: prefetcher, trained on streaks instead of using data awareness.
    imp_engine: object | None = None

    def __post_init__(self) -> None:
        if self.mpp_trigger not in ("prefetch", "demand"):
            raise ValueError("mpp_trigger must be 'prefetch' or 'demand'")

    @property
    def is_baseline(self) -> bool:
        """True for the no-prefetch configuration."""
        return isinstance(self.l2_prefetcher, NullPrefetcher) and not self.use_mpp


def make_prefetch_setup(
    name: str,
    mono_refill_penalty: int = 40,
    streamer_kwargs: dict | None = None,
) -> PrefetchSetup:
    """Build one of the named configurations.

    ``mono_refill_penalty`` approximates the L3+L2 refill latency the
    mono-L1 design pays before it can compute property addresses —
    DROPLET avoids it by decoupling the MPP to the MC (paper §V-A cites
    ~20% lower dependent-load latency when issuing from the MC).
    """
    kwargs = streamer_kwargs or {}
    if name == "none":
        return PrefetchSetup(name, NullPrefetcher())
    if name == "ghb":
        return PrefetchSetup(name, GHBPrefetcher())
    if name == "vldp":
        return PrefetchSetup(name, VLDPPrefetcher())
    if name == "stream":
        return PrefetchSetup(name, StreamPrefetcher(**kwargs))
    if name == "streamMPP1":
        return PrefetchSetup(
            name,
            StreamPrefetcher(**kwargs),
            use_mpp=True,
            mpp_config=MPPConfig(identifies_structure=True),
        )
    if name == "droplet":
        return PrefetchSetup(
            name,
            DataAwareStreamer(**kwargs),
            use_mpp=True,
            mpp_config=MPPConfig(identifies_structure=False),
        )
    if name == "monoDROPLETL1":
        return PrefetchSetup(
            name,
            DataAwareStreamer(**kwargs),
            use_mpp=True,
            mpp_config=MPPConfig(identifies_structure=True),
            fill_into_l1=True,
            mpp_issue_penalty=mono_refill_penalty,
        )
    if name == "adaptive":
        from ..prefetch.adaptive import AdaptiveStreamPrefetcher

        return PrefetchSetup(name, AdaptiveStreamPrefetcher(**kwargs))
    if name == "imp":
        from ..prefetch.imp import IMPPrefetcher

        return PrefetchSetup(
            name,
            StreamPrefetcher(**kwargs),  # IMP includes a stream component
            fill_into_l1=True,
            imp_engine=IMPPrefetcher(),
        )
    raise ValueError(
        "unknown prefetch configuration %r; expected one of %s"
        % (name, EXTENDED_CONFIG_NAMES)
    )
