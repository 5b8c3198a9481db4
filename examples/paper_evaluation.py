#!/usr/bin/env python3
"""Regenerate the paper's full evaluation on the simulated cluster.

Runs every table/figure driver at reduced sweep sizes (a few minutes
total) and prints the same series the paper plots.  The benchmarks
under ``benchmarks/`` run the same drivers individually; this example
is the one-command tour.

Run:  python examples/paper_evaluation.py [--quick]
"""

import sys

from repro.sim import experiments as exp


def main(quick: bool = True):
    duration = 1.0 if quick else 2.0
    max_events = 60_000 if quick else 150_000

    print("=" * 72)
    print("Figure 2 — throughput/latency/bandwidth vs buffer size")
    rows = exp.fig2_buffer_sweep(
        message_sizes=(50, 1024, 10240) if quick else exp.FIG2_MESSAGE_SIZES,
        duration=duration,
        max_events=max_events,
    )
    print(exp.format_rows(rows))

    print("=" * 72)
    print("Table I — context switches, batched vs individual scheduling")
    print(exp.format_rows(exp.table1_context_switches(repeats=3, duration=duration)))

    print("=" * 72)
    print("Object reuse — GC time as % of processing (paper: 8.63% → 0.79%)")
    print(exp.format_rows(exp.gc_object_reuse(duration=duration)))

    print("=" * 72)
    print("Figure 4 — backpressure staircase (source tracks stage-C rate)")
    print(exp.format_rows(exp.fig4_backpressure()))

    print("=" * 72)
    print("Figure 5 — cumulative throughput vs concurrent jobs (50 nodes)")
    print(exp.format_rows(exp.fig5_concurrent_jobs()))

    print("=" * 72)
    print("Figure 6 — cumulative throughput vs cluster size (50 jobs)")
    print(exp.format_rows(exp.fig6_cluster_size()))

    print("=" * 72)
    print("Figure 7 — NEPTUNE vs Storm message relay")
    print(
        exp.format_rows(
            exp.fig7_neptune_vs_storm(
                message_sizes=(50, 1024, 10240) if quick else exp.FIG7_MESSAGE_SIZES,
                duration=duration,
                max_events=max_events,
            )
        )
    )

    print("=" * 72)
    print("Figure 9 — manufacturing monitoring, NEPTUNE vs Storm")
    print(exp.format_rows(exp.fig9_manufacturing()))

    print("=" * 72)
    print(exp.format_fig10(exp.fig10_resource_usage()))

    print("=" * 72)
    print("Headline numbers (paper §VI)")
    head = exp.headline_numbers()
    print(f"  single pipeline: {head['single_pipeline_msg_s'] / 1e6:.2f} M msg/s "
          f"(paper: ~2 M)")
    print(f"  bandwidth:       {head['single_pipeline_bandwidth_gbps']:.3f} Gbps "
          f"(paper: 0.937)")
    print(f"  50-node cluster: {head['cluster_cumulative_msg_s'] / 1e6:.0f} M msg/s "
          f"(paper: ~100 M)")
    print(f"  p99 latency @10KB: {head['latency_p99_ms_10KB']:.1f} ms "
          f"(paper: ≤87.8 ms)")
    print(f"  manufacturing:   {head['manufacturing_cumulative_msg_s'] / 1e6:.1f} M msg/s "
          f"(paper: ~15 M)")


if __name__ == "__main__":
    main(quick="--full" not in sys.argv)
