"""Sustained-load soak test: resource usage must stay bounded.

The paper's motivation (§I-A): unbounded queues and object churn take
streaming systems down over time.  This test runs a saturating pipeline
for several seconds and asserts the mechanisms that prevent that —
bounded channels, bounded pools, steady throughput — actually hold.
"""

import time

import pytest

from repro.core import NeptuneConfig, NeptuneRuntime, StreamProcessingGraph
from repro.workloads import CollectingSink, CountingSource, RelayProcessor


@pytest.mark.slow
def test_soak_bounded_resources():
    class CountOnly(CollectingSink):
        """Counts packets without retaining them (bounded memory)."""

        n = 0

        def process(self, packet, ctx):
            self.n += 1

    sink_holder = {}

    def make_sink():
        s = CountOnly([])
        sink_holder["sink"] = s
        return s

    cfg = NeptuneConfig(
        buffer_capacity=8 * 1024,
        buffer_max_delay=0.005,
        inbound_high_watermark=64 * 1024,
        inbound_low_watermark=16 * 1024,
    )
    g = StreamProcessingGraph("soak", config=cfg)
    src = CountingSource(total=None, payload_size=100)
    g.add_source("src", lambda: src)
    g.add_processor("relay", RelayProcessor)
    g.add_processor("sink", make_sink)
    g.link("src", "relay").link("relay", "sink")

    with NeptuneRuntime() as rt:
        handle = rt.submit(g)
        # The sink's intake, sampled every half second for five.
        samples = []
        for _ in range(11):
            count = handle.metrics()["sink"]["packets_in"]
            samples.append((time.monotonic(), count))
            time.sleep(0.5)
        # Channels stay under their watermarks throughout (bounded by
        # construction: peak usage can overshoot high by at most one
        # frame, never grow unboundedly).
        job = handle._job
        for inst in job.all_instances():
            if inst.channel is not None:
                assert (
                    inst.channel.buffered_bytes
                    <= cfg.inbound_high_watermark + cfg.buffer_capacity + 4096
                )
            # Packet pools stay bounded regardless of packets processed.
            for free in inst._free_lists.values():
                assert len(free) <= 256
                assert free.created < 512
        assert handle.stop(timeout=60)

    # Sustained, steady throughput: no collapse over the run (last
    # window at least a third of the best window).
    rates = [
        (n1 - n0) / (t1 - t0)
        for (t0, n0), (t1, n1) in zip(samples, samples[1:])
        if n1 > n0
    ]
    assert len(rates) >= 4
    assert rates[-1] > max(rates) / 3
    # Everything emitted was processed (never-drop, drained).
    assert sink_holder["sink"].n == src.emitted
