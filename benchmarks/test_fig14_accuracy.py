"""Bench: regenerate Fig. 14 (prefetch accuracy by data type)."""

from repro.experiments import run_fig14


def test_fig14_prefetch_accuracy(benchmark, bench_config, show, figure_results):
    result = benchmark.pedantic(
        run_fig14,
        args=(bench_config,),
        kwargs={"results": figure_results},
        rounds=1,
        iterations=1,
    )
    show(result)
    # Paper: the sequential-order algorithms (CC, PR) have the highest
    # DROPLET accuracies (~95-100% structure).
    seq = [
        r for r in result.rows if r["workload"] in ("CC", "PR")
    ]
    if seq:
        mean_acc = sum(r["droplet_struct"] for r in seq) / len(seq)
        assert mean_acc > 80
