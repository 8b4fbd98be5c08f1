"""Tests for the shared prefetch simulation matrix."""

from repro.experiments import ExperimentConfig, get_prefetch_matrix


class TestMatrix:
    def test_full_key_coverage(self):
        cfg = ExperimentConfig.quick()
        matrix = get_prefetch_matrix(cfg, setups=("none", "droplet"))
        expected = {
            (w, d, s)
            for w in cfg.workloads
            for d in cfg.datasets
            for s in ("none", "droplet")
        }
        assert set(matrix) == expected

    def test_distinct_configs_distinct_matrices(self):
        a = get_prefetch_matrix(ExperimentConfig.quick(), setups=("none",))
        smaller = ExperimentConfig(
            workloads=("PR",), datasets=("kron",), max_refs=5_000, scale_shift=-3
        )
        b = get_prefetch_matrix(smaller, setups=("none",))
        assert a is not b

    def test_results_carry_setup_names(self):
        cfg = ExperimentConfig(
            workloads=("PR",), datasets=("kron",), max_refs=5_000, scale_shift=-3
        )
        matrix = get_prefetch_matrix(cfg, setups=("none", "stream"))
        assert matrix[("PR", "kron", "stream")].setup_name == "stream"
        assert matrix[("PR", "kron", "none")].setup_name == "none"
