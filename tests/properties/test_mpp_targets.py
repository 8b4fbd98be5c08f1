"""``MPP.scan_targets`` against a per-address MTLB reference model.

The MPP answers a structure fill in one of two ways: a fused all-hit
path when every scanned property page is already in the MTLB, and a
per-address fallback otherwise.  Both must give what translating the
scanned addresses one by one gives: each distinct property line once,
in the order of its first address, with that address's issue delay.
The reference here is a second MTLB on the same page table and
capacity, driven address by address.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.droplet import MPP, MTLB, MPPConfig
from repro.graph import build_csr
from repro.memory import GraphLayout

NUM_VERTICES = 8192
#: Four-byte ranks per 4 KB property page.
PAGE_RANKS = 1024


def _reference_targets(mtlb: MTLB, vaddrs: list[int], base_delay: int) -> dict:
    targets: dict[int, int] = {}
    for vaddr in vaddrs:
        result = mtlb.translate_property(vaddr)
        if result is None:
            continue
        paddr, latency = result
        targets.setdefault(paddr // 64, base_delay + latency)
    return targets


class TestScanTargetsModel:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        fills=st.lists(st.integers(0, 255), min_size=1, max_size=30),
        mtlb_entries=st.integers(1, 6),
        spread=st.integers(1, 4),
        lines_per_page=st.integers(1, 64),
        vab_entries=st.integers(1, 32),
        properties=st.sampled_from([("rank",), ("rank", "extra")]),
    )
    def test_matches_per_address_translation(
        self, seed, fills, mtlb_entries, spread, lines_per_page, vab_entries, properties
    ):
        # Neighbor IDs fall in the first ``lines_per_page`` property
        # lines of ``spread`` pages: few lines make a scan name one line
        # several times, and a small MTLB over several pages sends scans
        # down the fallback while repeats take the all-hit path.
        rng = np.random.default_rng(seed)
        pages = rng.choice(NUM_VERTICES // PAGE_RANKS, size=spread, replace=False)
        dst = rng.choice(pages, 1024) * PAGE_RANKS + rng.integers(
            0, lines_per_page * 16, 1024
        )
        edges = np.stack([rng.integers(0, NUM_VERTICES, 1024), dst], axis=1)
        layout = GraphLayout(build_csr(NUM_VERTICES, edges), property_names=properties)
        mpp = MPP(
            layout.space.page_table,
            MPPConfig(mtlb_entries=mtlb_entries, vab_entries=vab_entries),
        )
        mpp.configure_from_layout(layout, properties)
        reference = MTLB(layout.space.page_table, entries=mtlb_entries)
        cfg = mpp.config
        base_delay = cfg.pag.scan_latency + cfg.coherence_check_latency
        generated = 0
        first = layout.structure.base // 64
        last = (layout.structure.base + layout.structure.size - 1) // 64
        for offset in fills:
            line = first + offset % (last - first + 1)
            vaddrs = mpp.pag.scan(line * 64, 64)[:vab_entries]
            want = _reference_targets(reference, vaddrs, base_delay)
            generated += len(want)
            got = mpp.scan_targets(line, 0)
            assert list(got.items()) == list(want.items())
            assert mpp.requests_generated == generated
            assert mpp.mtlb.tlb_stats.hits == reference.tlb_stats.hits
            assert mpp.mtlb.tlb_stats.misses == reference.tlb_stats.misses
