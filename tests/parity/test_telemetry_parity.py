"""Telemetry parity: the fast path reports exactly what the oracle reports.

``docs/telemetry.md`` promises that a profiled run exports the same
payload whichever replay path produced it.  The batch fast path feeds
telemetry, attribution and the pollution tracker from inside its lean
demand cascade, so every sample, interval, histogram, event record and
attribution counter must serialize to byte-identical JSON against the
scalar oracle — not just against another fast run
(``test_determinism.py``).
"""

import dataclasses
import json

import pytest

from repro.graph import kronecker
from repro.system import Machine, SystemConfig
from repro.telemetry import Telemetry
from repro.telemetry.export import telemetry_dict
from repro.workloads.registry import get_workload

WORKLOADS = ("PR", "BFS", "CC")
SETUPS = ("none", "stream", "droplet", "ghb", "monoDROPLETL1")


@pytest.fixture(scope="module")
def runs():
    graph = kronecker(scale=14, edge_factor=8, seed=5, name="kron-s14")
    return {w: get_workload(w).run(graph, max_refs=20_000) for w in WORKLOADS}


def _config():
    """The scaled baseline with a 32 KiB LLC: short traces then overflow
    every level, so eviction events, writebacks, back-invalidations and
    pollution misses all reach the payload."""
    cfg = SystemConfig.scaled_baseline()
    return dataclasses.replace(
        cfg, l3=dataclasses.replace(cfg.l3, size_bytes=32 * 1024)
    )


def _payload(run, setup, fast_path):
    tel = Telemetry(interval_cycles=5_000, attribution=True)
    m = Machine(
        _config(),
        layout=run.layout,
        setup=setup,
        fast_path=fast_path,
        telemetry=tel,
    )
    tier = m.run(run.trace).fast_path
    meta = {"trace": run.trace.name, "setup": setup}
    return tier, json.dumps(telemetry_dict(tel, meta=meta), sort_keys=True)


@pytest.mark.parametrize("setup", SETUPS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fast_path_telemetry_matches_oracle(runs, workload, setup):
    tier, fast = _payload(runs[workload], setup, "auto")
    _, oracle = _payload(runs[workload], setup, "off")
    assert tier == "vector"
    payload = json.loads(fast)
    assert payload["events"]["records"]
    assert len(payload["samples"]) > 2
    identical = fast == oracle
    assert identical, _first_difference(fast, oracle)


def _first_difference(a: str, b: str) -> str:
    """Where two payloads diverge (a full diff of megabytes is too slow)."""
    i = next(
        (k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b))
    )
    lo = max(0, i - 120)
    return "payloads diverge at byte %d:\n  fast:   %s\n  oracle: %s" % (
        i, a[lo : i + 120], b[lo : i + 120],
    )
