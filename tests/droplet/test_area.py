"""Unit tests for the §V-D overhead model."""

import pytest

from repro.droplet import AreaModel, MPPConfig


class TestAreaModel:
    def test_paper_scale_numbers(self):
        """The default configuration must land near the paper's numbers."""
        report = AreaModel().report(MPPConfig())
        # Paper: 7.7 KB storage, 0.0654 mm^2, 0.0348% of the chip.
        assert 7_000 <= report.mpp_storage_bytes <= 9_000
        assert 0.055 <= report.mpp_area_mm2 <= 0.080
        assert 0.0002 <= report.mpp_chip_fraction <= 0.0006

    def test_page_table_overhead(self):
        report = AreaModel().report(MPPConfig(), page_table_entries=512)
        assert report.page_table_extra_bytes == 64  # paper's 64 B
        assert abs(report.page_table_overhead_fraction - 64 / 4096) < 1e-9

    def test_l2_queue_overhead(self):
        report = AreaModel().report(MPPConfig(), l2_queue_entries=32)
        assert report.l2_queue_extra_bytes == 4  # paper's 4 B

    def test_mrb_overhead_quad_core(self):
        report = AreaModel(num_cores=4).report(MPPConfig(), mrb_entries=256)
        assert report.mrb_core_id_bytes == 64  # paper's 64 B

    def test_mrb_overhead_single_core(self):
        # One core still needs a one-bit core-ID field per entry.
        report = AreaModel(num_cores=1).report(MPPConfig(), mrb_entries=256)
        assert report.mrb_core_id_bytes == 32

    def test_area_scales_with_buffers(self):
        small = AreaModel().mpp_area_mm2(MPPConfig(vab_entries=64, pab_entries=64))
        big = AreaModel().mpp_area_mm2(MPPConfig(vab_entries=1024, pab_entries=1024))
        assert big > small

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AreaModel(chip_area_mm2=0)
        with pytest.raises(ValueError):
            AreaModel(storage_fraction_of_mpp=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"page_table_entries": 0},
            {"page_table_entries": -512},
            {"l2_queue_entries": 0},
            {"mrb_entries": 0},
            {"mrb_entries": 2.5},
        ],
    )
    def test_report_rejects_non_positive_inputs(self, kwargs):
        with pytest.raises(ValueError, match="positive integer"):
            AreaModel().report(MPPConfig(), **kwargs)

    @pytest.mark.parametrize(
        "field", ["vab_entries", "pab_entries", "mtlb_entries"]
    )
    def test_report_rejects_degenerate_mpp_geometry(self, field):
        with pytest.raises(ValueError, match=field):
            AreaModel().report(MPPConfig(**{field: 0}))

    def test_report_error_names_the_offending_field(self):
        with pytest.raises(ValueError, match=r"mrb_entries.*got -1"):
            AreaModel().report(MPPConfig(), mrb_entries=-1)

    def test_rejects_non_positive_core_count(self):
        with pytest.raises(ValueError, match="num_cores"):
            AreaModel(num_cores=0)
