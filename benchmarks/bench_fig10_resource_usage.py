"""FIG10 — cluster-wide CPU and memory consumption, NEPTUNE vs Storm.

Paper Fig. 10 (50 jobs on 50 workers): "NEPTUNE's CPU consumption is
consistently lower compared to the CPU consumption of Storm across all
50 nodes (p-value for the one tailed t-test < 0.0001) ... With respect
to memory consumption, there is no noticeable difference between the
systems (p-value for the two-tailed t-test = 0.0863)."
"""

from repro.sim import experiments as exp


def test_fig10_resource_usage(benchmark):
    fig10 = benchmark.pedantic(lambda: exp.fig10_resource_usage(), rounds=1, iterations=1)
    print()
    print(exp.format_fig10(fig10))

    # Storm burns more CPU while delivering ~8x less (Fig. 9).
    assert fig10["cpu_mean_storm"] > fig10["cpu_mean_neptune"]
    assert fig10["cpu_one_tailed_p"] < 1e-3  # paper: < 0.0001
    # Memory: no significant difference at the 5% level (paper: 0.0863).
    assert fig10["mem_two_tailed_p"] > 0.05
    # Sanity on scale: CPU% is cumulative over up-to-8 vcores.
    assert all(0 <= v <= 800 for v in fig10["storm_cpu_pct"])
    assert all(0 <= v <= 100 for v in fig10["neptune_mem_pct"])
