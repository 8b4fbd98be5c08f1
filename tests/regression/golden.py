"""Golden-value computation for the simulator-core regression tests.

One small fixed-seed trace per paper workload (kron at scale_shift=-6,
3000 references), simulated under every constructible prefetch setup
(``EXTENDED_CONFIG_NAMES``: the no-prefetch baseline, Fig. 11's six
prefetchers, IMP and the adaptive streamer).  The pinned metrics —
cycles, LLC MPKI, L2 hit rate and speedup over the baseline — cover the
timing model, the cache hierarchy, the data-type classifier and each
prefetcher's tables in one number each.

Regenerate after an *intentional* model change with:

    PYTHONPATH=src python -m tests.regression.golden

and review the diff of ``golden_values.json`` like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.droplet.composite import EXTENDED_CONFIG_NAMES

GOLDEN_PATH = Path(__file__).with_name("golden_values.json")

#: Trace identity of every golden run (also baked into the JSON header).
DATASET = "kron"
MAX_REFS = 3000
SCALE_SHIFT = -6
SETUPS = EXTENDED_CONFIG_NAMES

#: Pinned to full float64 precision; comparisons use rel=1e-9.
METRICS = ("cycles", "llc_mpki", "l2_hit_rate", "speedup_vs_none")


def compute_golden() -> dict[str, dict[str, float]]:
    """Simulate the golden matrix and return ``{workload/setup: metrics}``."""
    from repro.runtime import TraceSpec
    from repro.system.runner import compare_setups
    from repro.workloads.registry import PAPER_WORKLOAD_ORDER

    entries: dict[str, dict[str, float]] = {}
    for workload in PAPER_WORKLOAD_ORDER:
        spec = TraceSpec(
            workload, DATASET, max_refs=MAX_REFS, scale_shift=SCALE_SHIFT
        )
        results = compare_setups(spec.trace(), setups=SETUPS)
        base = results["none"]
        for setup in SETUPS:
            r = results[setup]
            entries["%s/%s" % (workload, setup)] = {
                "cycles": float(r.cycles),
                "llc_mpki": r.llc_mpki(),
                "l2_hit_rate": r.l2_hit_rate(),
                "speedup_vs_none": r.speedup_vs(base),
            }
    return entries


def load_golden() -> dict[str, dict[str, float]]:
    """The committed golden values."""
    return json.loads(GOLDEN_PATH.read_text())["values"]


def main() -> None:
    payload = {
        "comment": "pinned simulate() outputs; regenerate via "
        "`PYTHONPATH=src python -m tests.regression.golden`",
        "dataset": DATASET,
        "max_refs": MAX_REFS,
        "scale_shift": SCALE_SHIFT,
        "values": compute_golden(),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print("wrote %s (%d entries)" % (GOLDEN_PATH, len(payload["values"])))


if __name__ == "__main__":
    main()
