#!/usr/bin/env python3
"""Backpressure in action (paper §III-B4, Figs. 3-4).

A fast source feeds a deliberately slow sink through a relay.  Without
flow control the relay's queue would grow without bound (Storm's
failure mode in Fig. 7); with NEPTUNE's watermark gates the source is
throttled to the sink's pace and nothing is dropped.

The demo varies the sink's per-packet sleep in steps (0 → 1 → 2 ms,
like Fig. 4's staircase) and prints the source emission rate observed
in each phase.

Run:  python examples/backpressure_demo.py
"""

import time

from repro.core import NeptuneConfig, NeptuneRuntime, StreamProcessingGraph
from repro.workloads import (
    CountingSource,
    RelayProcessor,
    VariableRateProcessor,
)


def build_graph(source=None, sink=None):
    if source is None:
        source = CountingSource(total=None, payload_size=100)  # endless
    if sink is None:
        sink = VariableRateProcessor([0.0])

    graph = StreamProcessingGraph(
        "backpressure-demo",
        config=NeptuneConfig(
            buffer_capacity=1024,
            buffer_max_delay=0.002,
            inbound_high_watermark=8 * 1024,
            inbound_low_watermark=2 * 1024,
        ),
    )
    graph.add_source("source", lambda: source)
    graph.add_processor("relay", RelayProcessor)
    graph.add_processor("slow-sink", lambda: sink)
    # The sink sleeps - it waits outside the interpreter - so it keeps a
    # thread, a buffer and a watermark gate of its own (chain=False);
    # source -> relay is chained: a relay adds no parallelism.
    graph.link("source", "relay").link("relay", "slow-sink", chain=False)
    return graph


def main():
    sleep_holder = [0.0]
    source = CountingSource(total=None, payload_size=100)  # endless
    sink = VariableRateProcessor(sleep_holder)
    graph = build_graph(source, sink)

    phases = [(0.0, 1.0), (0.001, 2.0), (0.002, 2.0), (0.0, 1.0)]
    with NeptuneRuntime() as runtime:
        handle = runtime.submit(graph)
        print(f"{'sink sleep':>12} {'source rate':>14} {'processed rate':>15}")
        for sleep, duration in phases:
            sleep_holder[0] = sleep
            time.sleep(0.3)  # settle into the new regime
            e0, p0 = source.emitted, sink.processed
            time.sleep(duration)
            src_rate = (source.emitted - e0) / duration
            sink_rate = (sink.processed - p0) / duration
            print(
                f"{sleep * 1000:>9.0f} ms {src_rate:>11.0f}/s {sink_rate:>12.0f}/s"
            )
        handle.stop(timeout=60)

    print(
        f"\nemitted {source.emitted}, processed {sink.processed} "
        "— drained, nothing dropped"
    )
    assert sink.processed == source.emitted


if __name__ == "__main__":
    main()
