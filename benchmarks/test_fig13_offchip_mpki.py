"""Bench: regenerate Fig. 13 (off-chip demand MPKI by data type)."""

from repro.experiments import run_fig13


def test_fig13_offchip_mpki(benchmark, bench_config, show, figure_results):
    result = benchmark.pedantic(
        run_fig13,
        args=(bench_config,),
        kwargs={"results": figure_results},
        rounds=1,
        iterations=1,
    )
    show(result)
    for row in result.rows:
        # The additive paper story, per cell: the streamer cuts structure
        # misses; DROPLET never leaves structure misses above the baseline.
        assert row["stream_struct"] <= row["none_struct"] + 0.5
        assert row["droplet_struct"] <= row["none_struct"] + 0.5
        # streamMPP1 (the MPP's debut) cuts property misses vs stream.
        # Cells where the conventional streamer finds no streams to chase
        # (BFS on uniform graphs) may pollute slightly; allow 10% slack.
        assert row["streamMPP1_prop"] <= 1.10 * row["stream_prop"] + 0.5
