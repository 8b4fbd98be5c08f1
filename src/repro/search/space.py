"""Design-space specifications for ``repro pareto``.

A space is a cross-product over up to five machine axes:

========  ======================================  =================
axis      values                                  baseline (omitted)
========  ======================================  =================
setup     prefetcher config names                 ``none``
llc       LLC capacity multiplier (CACTI points)  1× (base LLC)
l2        ``MULT/ASSOC`` or ``no`` (drop the L2)  base L2
rob       instruction-window entries              base ROB
mrb       memory-request-buffer entries           none (label only)
========  ======================================  =================

The ``mrb`` axis names candidates and configures nothing: replay queues
no request, so a memory request buffer would change no result, and
candidates that differ only in ``mrb`` tie on every objective.

Specs come in two equivalent forms:

* an inline string — semicolon-separated ``axis=v1,v2`` clauses, e.g.
  ``"setup=none,stream,droplet;llc=1,2,4;l2=1/8,no;rob=128,512"``;
* a JSON object with the same keys mapping to value lists, e.g.
  ``{"setup": ["none", "stream"], "llc": [1, 4], "mrb": [64, 256]}``.

Parsing is deterministic: candidates are deduplicated and sorted by
label, so the same spec always yields the same candidate order — one of
the ingredients of ``repro pareto``'s byte-identical resume.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.points import SweepPoint

__all__ = ["Candidate", "parse_space", "SPACE_AXES"]

#: Recognised spec keys, in rendering order.
SPACE_AXES = ("setup", "llc", "l2", "rob", "mrb")


@dataclass(frozen=True)
class Candidate:
    """One machine configuration in the search space (trace-agnostic)."""

    setup: str = "none"
    llc_multiplier: int | None = None
    l2_config: tuple[int | None, int] | None = None
    rob_entries: int | None = None
    #: Names the candidate only (see the module docstring).
    mrb_entries: int | None = None

    @property
    def label(self) -> str:
        """Deterministic human-readable name (the sort/dedup key)."""
        parts = [self.setup]
        if self.llc_multiplier is not None:
            parts.append("llc%dx" % self.llc_multiplier)
        if self.l2_config is not None:
            mult, assoc = self.l2_config
            parts.append("no-l2" if mult is None else "l2:%dx/%d" % (mult, assoc))
        if self.rob_entries is not None:
            parts.append("rob%d" % self.rob_entries)
        if self.mrb_entries is not None:
            parts.append("mrb%d" % self.mrb_entries)
        return "+".join(parts)

    def knobs(self) -> dict:
        """JSON-safe knob dict for reports and service submission."""
        return {
            "setup": self.setup,
            "llc_multiplier": self.llc_multiplier,
            "l2_config": list(self.l2_config) if self.l2_config else None,
            "rob_entries": self.rob_entries,
            "mrb_entries": self.mrb_entries,
        }

    def point(
        self,
        workload: str,
        dataset: str,
        max_refs: int,
        scale_shift: int = 0,
        seed: int | None = None,
    ) -> SweepPoint:
        """Bind this configuration to a trace window as a sweep point."""
        return SweepPoint(
            workload=workload,
            dataset=dataset,
            setup=self.setup,
            max_refs=max_refs,
            scale_shift=scale_shift,
            seed=seed,
            llc_multiplier=self.llc_multiplier,
            l2_config=self.l2_config,
            rob_entries=self.rob_entries,
            mrb_entries=self.mrb_entries,
        )


def _parse_inline(spec: str) -> dict:
    axes: dict = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        axis, sep, values = clause.partition("=")
        if not sep:
            raise ValueError(
                "bad space clause %r (expected axis=v1,v2,...)" % clause
            )
        axes[axis.strip()] = [
            v.strip() for v in values.split(",") if v.strip()
        ]
    return axes


def _int_axis(axis: str, values: list) -> list[int]:
    out = []
    for value in values:
        try:
            out.append(int(value))
        except (TypeError, ValueError):
            raise ValueError(
                "axis %r value %r is not an integer" % (axis, value)
            ) from None
        if out[-1] <= 0:
            raise ValueError("axis %r value %r must be positive" % (axis, value))
    return out


def _l2_values(values: list) -> list[tuple[int | None, int] | None]:
    out: list[tuple[int | None, int] | None] = []
    for value in values:
        if value is None or (isinstance(value, str) and value.lower() in ("base", "")):
            out.append(None)
        elif isinstance(value, str) and value.lower() in ("no", "none", "off"):
            out.append((None, 8))
        elif isinstance(value, (list, tuple)) and len(value) == 2:
            mult, assoc = value
            out.append((None if mult is None else int(mult), int(assoc)))
        elif isinstance(value, str):
            mult, sep, assoc = value.partition("/")
            if not sep:
                raise ValueError(
                    "l2 value %r must be MULT/ASSOC, 'no' or 'base'" % value
                )
            out.append((int(mult), int(assoc)))
        else:
            raise ValueError("bad l2 value %r" % (value,))
    for entry in out:
        if entry is not None and entry[0] is not None and (
            entry[0] <= 0 or entry[1] <= 0
        ):
            raise ValueError("l2 multiplier/associativity must be positive")
    return out


def parse_space(spec: str | dict) -> list[Candidate]:
    """Parse a space spec into the sorted, deduplicated candidate list."""
    from ..droplet.composite import EXTENDED_CONFIG_NAMES
    from ..system.config import cacti_llc_latency

    axes = _parse_inline(spec) if isinstance(spec, str) else dict(spec)
    unknown = sorted(set(axes) - set(SPACE_AXES))
    if unknown:
        raise ValueError(
            "unknown space axis(es): %s (known: %s)"
            % (", ".join(unknown), ", ".join(SPACE_AXES))
        )
    setups = [str(s) for s in axes.get("setup", ["none"])]
    bad = sorted(set(setups) - set(EXTENDED_CONFIG_NAMES))
    if bad:
        raise ValueError(
            "unknown setup(s): %s (choices: %s)"
            % (", ".join(bad), ", ".join(EXTENDED_CONFIG_NAMES))
        )
    llc: list[int | None] = [None]
    if "llc" in axes:
        llc = []
        for mult in _int_axis("llc", axes["llc"]):
            cacti_llc_latency(mult)  # validates against the CACTI points
            llc.append(None if mult == 1 else mult)  # 1x == the baseline
    l2 = _l2_values(axes["l2"]) if "l2" in axes else [None]
    rob: list[int | None] = (
        list(_int_axis("rob", axes["rob"])) if "rob" in axes else [None]
    )
    mrb: list[int | None] = (
        list(_int_axis("mrb", axes["mrb"])) if "mrb" in axes else [None]
    )
    if not (setups and llc and l2 and rob and mrb):
        raise ValueError("every given axis needs at least one value")
    candidates = {
        c.label: c
        for c in (
            Candidate(s, lm, l2c, r, m)
            for s in setups
            for lm in llc
            for l2c in l2
            for r in rob
            for m in mrb
        )
    }
    return [candidates[label] for label in sorted(candidates)]
