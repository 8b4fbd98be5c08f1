"""Hierarchical metric registry: named counters, gauges and histograms.

Every component of the simulated machine registers its statistics here
under a dot-separated path (``cache.l2.0.hits``, ``dram.ch0.writebacks``,
``droplet.mpp.requests``) instead of inventing one-off dataclasses for
each consumer.  The registry is *pull-based*: gauges wrap callables that
read live counters from the existing stats objects, so registration adds
zero cost to the simulation hot path — values are only materialized when
the sampler takes a snapshot.

Metric kinds
------------
* :class:`Counter` — a monotonically increasing value owned by the
  registry (``inc``); used for telemetry-side accounting.
* :class:`Gauge` — a read-through view of an external value via a
  zero-argument callable; used to expose existing stats counters.
* :class:`Histogram` — fixed-boundary bucket counts plus sum/count, for
  distributions (per-window MLP, exposed latency).

Naming scheme
-------------
``<family>.<component>[.<index>].<metric>[.<data type>]`` — the leading
segment is the *metric family* (``cache``, ``dram``, ``core``,
``prefetch``, ``droplet``, ``tlb``); exporters group timelines
by family.  See ``docs/telemetry.md`` for the full catalogue.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable

__all__ = ["MetricRegistry", "Counter", "Gauge", "Histogram"]


class Counter:
    """A registry-owned monotonic counter."""

    __slots__ = ("name", "_value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only increase (got %r)" % (amount,))
        self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        return self._value


class Gauge:
    """A read-through metric backed by a zero-argument callable."""

    __slots__ = ("name", "_fn")

    kind = "gauge"

    def __init__(self, name: str, fn: Callable[[], float]):
        self.name = name
        self._fn = fn

    @property
    def value(self) -> float:
        """Current reading."""
        return float(self._fn())


class Histogram:
    """Fixed-boundary histogram with sum/count for mean computation.

    ``boundaries`` are upper bucket edges; one overflow bucket catches
    everything beyond the last edge.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "count")

    kind = "histogram"

    def __init__(self, name: str, boundaries: Iterable[float]):
        self.name = name
        self.boundaries = sorted(float(b) for b in boundaries)
        if not self.boundaries:
            raise ValueError("histogram %r needs at least one boundary" % name)
        self.counts = [0] * (len(self.boundaries) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_right(self.boundaries, value)] += 1
        self.total += value
        self.count += 1

    @property
    def value(self) -> float:
        """Mean of all observations (the scalar used in timelines)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON-safe form with bucket edges and counts."""
        return {
            "boundaries": self.boundaries,
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "mean": self.value,
        }


class MetricRegistry:
    """Dot-path-named metrics with prefix queries and flat snapshots.

    Components register through :meth:`counter`/:meth:`gauge`/
    :meth:`histogram`; dynamic metric sets (e.g. prefetch issuers that
    appear mid-run) register a *collector* callable returning a
    ``{name: value}`` dict evaluated at snapshot time.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._collectors: list[Callable[[], dict[str, float]]] = []

    # ------------------------------------------------------------------
    def _add(self, metric):
        if metric.name in self._metrics:
            raise ValueError("metric %r already registered" % metric.name)
        if not metric.name or metric.name.startswith(".") or metric.name.endswith("."):
            raise ValueError("invalid metric name %r" % metric.name)
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        """Register and return a new :class:`Counter`."""
        return self._add(Counter(name))

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        """Register a callable-backed :class:`Gauge`."""
        return self._add(Gauge(name, fn))

    def histogram(self, name: str, boundaries: Iterable[float]) -> Histogram:
        """Register a fixed-boundary :class:`Histogram`."""
        return self._add(Histogram(name, boundaries))

    def add_collector(self, fn: Callable[[], dict[str, float]]) -> None:
        """Register a dynamic ``{name: value}`` provider.

        Collector names must not collide with registered metrics; the
        snapshot raises if they do, so drift is caught immediately.
        """
        self._collectors.append(fn)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        """The metric object registered under ``name`` (or ``None``)."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def find(self, prefix: str) -> list[str]:
        """Names under a dot-path prefix (``find("cache.l2")``)."""
        dotted = prefix + "." if prefix and not prefix.endswith(".") else prefix
        return sorted(
            n for n in self._metrics if n == prefix or n.startswith(dotted)
        )

    def families(self) -> list[str]:
        """The distinct leading path segments present in the registry."""
        return sorted({name.split(".", 1)[0] for name in self._metrics})

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Flat ``{name: value}`` reading of every scalar metric.

        Histograms contribute their running mean; full bucket contents
        are exported separately via :meth:`histograms`.
        """
        values = {name: m.value for name, m in self._metrics.items()}
        for fn in self._collectors:
            for name, value in fn().items():
                if name in self._metrics:
                    raise ValueError(
                        "collector name %r collides with a registered metric"
                        % name
                    )
                values[name] = float(value)
        return values

    def histograms(self) -> dict[str, dict]:
        """All histograms in JSON-safe form, keyed by name."""
        return {
            name: m.as_dict()
            for name, m in self._metrics.items()
            if isinstance(m, Histogram)
        }
