"""Smoke + structural tests for every figure module (quick matrix).

These verify that each ``run_*`` produces the figure's rows and columns,
most of them folded from one shared sweep; the exact quick-scale output
is pinned in ``tests/regression/figures_quick.txt``, and the
paper-shape assertions on the *full* matrix live in
``tests/integration/test_paper_claims.py`` and the benchmark suite.
"""

import pytest

from repro.experiments import (
    FIGURES,
    ExperimentConfig,
    figure_points,
    run_fig01,
    run_fig03,
    run_fig04a,
    run_fig04b,
    run_fig04c,
    run_fig05,
    run_fig07,
    run_fig11a,
    run_fig11b,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_points,
)


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig.quick()


@pytest.fixture(scope="module")
def results(cfg):
    """Every figure's points at default parameters, simulated in one sweep."""
    return run_points(figure_points(FIGURES, cfg))


class TestCharacterizationFigures:
    def test_fig01(self, cfg):
        res = run_fig01(cfg)
        row = res.rows[0]
        assert "base" in row and "DRAM" in row
        assert 0 <= row["DRAM"] <= 1

    def test_fig03(self, cfg, results):
        res = run_fig03(cfg, results=results)
        assert len(res.rows) == len(cfg.workloads) * len(cfg.datasets)
        assert all("speedup" in row for row in res.rows)
        assert res.notes

    def test_fig04a(self, cfg, results):
        res = run_fig04a(cfg, multipliers=(1, 2), results=results)
        assert res.rows[-1]["workload"] == "MEAN"
        for row in res.rows:
            assert row["mpki_1x"] >= 0

    def test_fig04b(self, cfg, results):
        res = run_fig04b(cfg, results=results)
        for row in res.rows:
            assert "speedup_no-L2" in row
            assert "hit_1x" in row

    def test_fig04c(self, cfg):
        res = run_fig04c(cfg, multipliers=(1, 2))
        assert [row["llc"] for row in res.rows] == ["1x", "2x"]
        for row in res.rows:
            assert 0 <= row["property_offchip_%"] <= 100

    def test_fig05(self, cfg):
        res = run_fig05(cfg)
        for row in res.rows:
            assert 0 <= row["chained_loads_%"] <= 100
            assert row["prop_consumer_%"] >= row["prop_producer_%"]

    def test_fig07(self, cfg, results):
        res = run_fig07(cfg, results=results)
        # one row per (workload, dataset, type)
        assert len(res.rows) == len(cfg.workloads) * len(cfg.datasets) * 3
        for row in res.rows:
            total = row["L1_%"] + row["L2_%"] + row["L3_%"] + row["DRAM_%"]
            assert abs(total - 100) < 0.5


class TestEvaluationFigures:
    def test_fig11a_columns(self, cfg, results):
        res = run_fig11a(cfg, setups=("none", "stream", "droplet"), results=results)
        for row in res.rows:
            assert "stream" in row and "droplet" in row and "none" not in row

    def test_fig11b_geomean(self, cfg, results):
        res = run_fig11b(cfg, setups=("none", "droplet"), results=results)
        assert len(res.rows) == len(cfg.workloads)
        assert all(row["droplet"] > 0 for row in res.rows)

    def test_fig12(self, cfg, results):
        res = run_fig12(cfg, results=results)
        mean_rows = [r for r in res.rows if r["dataset"] == "MEAN"]
        assert len(mean_rows) == len(cfg.workloads)
        for row in res.rows:
            for setup in ("none", "stream", "streamMPP1", "droplet"):
                assert 0 <= row[setup] <= 1

    def test_fig13(self, cfg, results):
        res = run_fig13(cfg, results=results)
        for row in res.rows:
            assert row["droplet_struct"] <= row["none_struct"] + 1e-9

    def test_fig14(self, cfg, results):
        res = run_fig14(cfg, results=results)
        for row in res.rows:
            for key, value in row.items():
                if key.endswith("_struct") or key.endswith("_prop"):
                    assert 0 <= value <= 100

    def test_fig15(self, cfg, results):
        res = run_fig15(cfg, results=results)
        for row in res.rows:
            assert row["droplet"] >= 0
            assert "droplet_extra_%" in row
