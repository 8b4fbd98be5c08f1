"""The per-run telemetry session: registry + sampler + event trace.

A :class:`Telemetry` object is created per simulation run and handed to
:func:`repro.system.runner.simulate` (or ``Machine``).  The machine
binds every component's stats into the registry at construction time
and drives the sampler from its window loop.  Telemetry off is spelled
``None``: the machine then adds **zero** work to the hot loop, and a
session never changes simulated results.

One session instruments one run: :meth:`attach` raises on reuse, which
catches accidental double-registration of the same metric names.
"""

from __future__ import annotations

from ..trace.record import DataType
from .events import EventTrace
from .registry import MetricRegistry
from .sampler import IntervalSampler, Timeline

__all__ = ["Telemetry"]

#: int(DataType) -> short name, for tagging events cheaply.
_DTYPE_NAMES = {int(dt): dt.short_name for dt in DataType}


class Telemetry:
    """One run's telemetry: metric registry, sampler and event ring.

    Parameters
    ----------
    interval_cycles:
        Cadence of periodic timeline samples (simulated cycles).
    event_capacity:
        Ring-buffer size of the structured event trace.
    attribution:
        Ask the machine to attach an
        :class:`~repro.telemetry.attribution.AttributionProfiler`:
        per-region L2/LLC miss accounting, prefetch pollution tracking
        and (with ``classify_misses``) shadow-tag miss classification.
        The profiler lands on :attr:`attribution_profiler` during
        :meth:`Machine._bind_telemetry` and its counters join the
        registry under the ``attribution`` family.
    classify_misses:
        Maintain the fully-associative shadow tag stores that classify
        each miss compulsory/capacity/conflict.  Only read when
        ``attribution`` is on; off skips the per-access shadow updates.
    """

    def __init__(
        self,
        interval_cycles: int = 50_000,
        event_capacity: int = 65536,
        attribution: bool = False,
        classify_misses: bool = True,
    ):
        self.registry = MetricRegistry()
        self.sampler = IntervalSampler(self.registry, interval_cycles)
        self.events = EventTrace(capacity=event_capacity)
        self.attribution = attribution
        self.classify_misses = classify_misses
        #: Set by the machine when ``attribution`` is requested.
        self.attribution_profiler = None
        self.attached_to: str | None = None

    # ------------------------------------------------------------------
    @property
    def timeline(self) -> Timeline:
        """The sampled timeline (delegates to the sampler)."""
        return self.sampler.timeline

    def attach(self, label: str) -> None:
        """Claim this session for one run; raises if already claimed."""
        if self.attached_to is not None:
            raise RuntimeError(
                "telemetry session already attached to %r; build a fresh "
                "Telemetry per simulation run" % self.attached_to
            )
        self.attached_to = label

    # ------------------------------------------------------------------
    # Machine-facing hooks (hot-adjacent; called only with a session)
    # ------------------------------------------------------------------
    def emit(self, cycle, kind, line=None, core=None, dtype=None, detail=None) -> None:
        """Record one structured event; ``dtype`` may be an int DataType."""
        if isinstance(dtype, int):
            dtype = _DTYPE_NAMES.get(dtype, str(dtype))
        self.events.emit(cycle, kind, line=line, core=core, dtype=dtype, detail=detail)

    def record_phase(self, label: str, cycle: float, ref_index: int) -> None:
        """A workload phase boundary: snapshot + phase event."""
        self.sampler.on_phase(label, cycle, ref_index)
        self.events.emit(cycle, "phase", detail=label)

    def on_window(self, cycle: float, ref_index: int) -> None:
        """Window-boundary tick: samples when an interval was crossed."""
        self.sampler.on_window(cycle, ref_index)

    def finish(self, cycle: float, ref_index: int) -> None:
        """End of run: take the final sample."""
        self.sampler.finish(cycle, ref_index)
