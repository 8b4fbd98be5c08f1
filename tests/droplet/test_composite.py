"""Unit tests for the six prefetcher configurations."""

import pytest

from repro.droplet import PREFETCH_CONFIG_NAMES, make_prefetch_setup
from repro.prefetch import (
    DataAwareStreamer,
    GHBPrefetcher,
    NullPrefetcher,
    StreamPrefetcher,
    VLDPPrefetcher,
)


class TestFactory:
    def test_all_names_constructible(self):
        for name in PREFETCH_CONFIG_NAMES:
            setup = make_prefetch_setup(name)
            assert setup.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_prefetch_setup("magic")

    def test_none_is_baseline(self):
        setup = make_prefetch_setup("none")
        assert setup.is_baseline
        assert isinstance(setup.l2_prefetcher, NullPrefetcher)

    def test_ghb_and_vldp(self):
        assert isinstance(make_prefetch_setup("ghb").l2_prefetcher, GHBPrefetcher)
        assert isinstance(make_prefetch_setup("vldp").l2_prefetcher, VLDPPrefetcher)
        assert not make_prefetch_setup("ghb").use_mpp

    def test_stream_is_conventional(self):
        setup = make_prefetch_setup("stream")
        assert type(setup.l2_prefetcher) is StreamPrefetcher
        assert not setup.use_mpp

    def test_streammpp1_self_identifies(self):
        setup = make_prefetch_setup("streamMPP1")
        assert type(setup.l2_prefetcher) is StreamPrefetcher
        assert setup.use_mpp
        assert setup.mpp_config.identifies_structure

    def test_droplet_shape(self):
        setup = make_prefetch_setup("droplet")
        assert isinstance(setup.l2_prefetcher, DataAwareStreamer)
        assert setup.use_mpp
        assert not setup.mpp_config.identifies_structure  # trusts the C-bit
        assert not setup.fill_into_l1
        assert setup.mpp_issue_penalty == 0

    def test_mono_l1_shape(self):
        setup = make_prefetch_setup("monoDROPLETL1")
        assert isinstance(setup.l2_prefetcher, DataAwareStreamer)
        assert setup.fill_into_l1
        assert setup.mpp_issue_penalty > 0  # lost decoupling
        assert setup.mpp_config.identifies_structure

    def test_streamer_kwargs_forwarded(self):
        setup = make_prefetch_setup("droplet", streamer_kwargs={"distance": 8})
        assert setup.l2_prefetcher.distance == 8
