"""Design-space spec parsing and candidate → config resolution."""

from __future__ import annotations

import pytest

from repro.runtime.executor import resolve_point_config
from repro.runtime.ledger import point_key
from repro.search.space import Candidate, parse_space
from repro.system.config import SystemConfig


class TestParseSpace:
    def test_inline_and_dict_forms_are_equivalent(self):
        inline = parse_space("setup=none,stream;llc=1,2;rob=128,512")
        as_dict = parse_space(
            {"setup": ["none", "stream"], "llc": [1, 2], "rob": [128, 512]}
        )
        assert [c.label for c in inline] == [c.label for c in as_dict]
        assert len(inline) == 8

    def test_candidates_are_sorted_and_deduplicated(self):
        space = parse_space("setup=stream,none,stream")
        assert [c.label for c in space] == ["none", "stream"]

    def test_llc_1x_normalizes_to_the_baseline(self):
        (candidate,) = parse_space("llc=1")
        assert candidate.llc_multiplier is None
        assert candidate.label == "none"

    def test_l2_axis_values(self):
        space = parse_space("l2=2/16,no,base")
        configs = {c.l2_config for c in space}
        assert configs == {(2, 16), (None, 8), None}

    @pytest.mark.parametrize(
        "bad",
        [
            "turbo=1",  # unknown axis
            "setup=warp",  # unknown prefetcher
            "llc=3",  # no CACTI point
            "llc=0",
            "rob=-1",
            "mrb=0",
            "l2=8",  # missing associativity
            "setup",  # malformed clause
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_space(bad)

    def test_every_label_is_unique_and_deterministic(self):
        space = parse_space(
            "setup=none,droplet;llc=1,4;l2=1/8,no;rob=256;mrb=64,256"
        )
        labels = [c.label for c in space]
        assert labels == sorted(labels)
        assert len(set(labels)) == len(labels) == 16


class TestCandidateResolution:
    def test_point_carries_every_knob(self):
        candidate = Candidate(
            setup="droplet",
            llc_multiplier=4,
            l2_config=(2, 16),
            rob_entries=512,
            mrb_entries=64,
        )
        point = candidate.point("pr", "kron", 3000, scale_shift=-6, seed=7)
        assert point.workload == "PR"
        assert point.setup == "droplet"
        assert point.max_refs == 3000
        assert point.seed == 7
        assert point.label == "PR/kron/droplet+llc4x+l2:2x/16+rob512+mrb64"

    def test_resolve_point_config_applies_rob_and_mrb(self):
        base = SystemConfig.scaled_baseline()
        point = Candidate(rob_entries=512, mrb_entries=64).point(
            "PR", "kron", 1000
        )
        config = resolve_point_config(point, base)
        assert config.rob_entries == 512
        # The MRB capacity names the point and configures nothing.
        rob_only = Candidate(rob_entries=512).point("PR", "kron", 1000)
        assert config == resolve_point_config(rob_only, base)
        # Untouched axes keep the base machine.
        assert config.l3.size_bytes == base.l3.size_bytes

    def test_new_knobs_extend_the_point_key_only_when_set(self):
        plain = Candidate().point("PR", "kron", 1000)
        with_rob = Candidate(rob_entries=256).point("PR", "kron", 1000)
        with_mrb = Candidate(mrb_entries=64).point("PR", "kron", 1000)
        keys = {point_key(plain), point_key(with_rob), point_key(with_mrb)}
        assert len(keys) == 3
