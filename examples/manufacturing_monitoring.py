#!/usr/bin/env python3
"""The paper's manufacturing-equipment monitoring application (Fig. 8).

"The system ingests a continuous stream of readings captured by
sensors.  ... Three of these sensor readings correspond to the states
of three chemical additive sensors whereas the other three readings
capture the states of the corresponding valves.  When the state of a
sensor changes, the valves actuate resulting in a change of its state.
The objective of the job is to monitor the delay between the sensor
state change and actuation of the corresponding valve over a 24-hour
time window."

Four stages, mirroring Fig. 8:

    ingest ─▶ state-change detector x3 ─▶ delay matcher x3 ─▶ monitor

The detector is partitioned by sensor index so each matcher sees a
consistent per-sensor event order.  The link from ingest compresses
well (low-entropy telemetry, §III-B5), so compression is enabled there.

Run:  python examples/manufacturing_monitoring.py
"""

from repro.core import (
    FieldType,
    NeptuneConfig,
    NeptuneRuntime,
    PacketSchema,
    SlidingWindow,
    StreamProcessingGraph,
    StreamProcessor,
    StreamSource,
)
from repro.workloads.debs import MANUFACTURING_SCHEMA, ManufacturingStream

N_RECORDS = 40_000
WINDOW_HOURS = 24.0

#: A detected state-change or actuation event for one sensor.
EVENT = PacketSchema(
    [
        ("ts", FieldType.INT64),
        ("sensor", FieldType.INT32),
        ("kind", FieldType.STRING),  # "sensor" | "valve"
        ("state", FieldType.BOOL),
    ]
)

#: A matched sensor→valve actuation delay.
DELAY = PacketSchema(
    [
        ("sensor", FieldType.INT32),
        ("changed_ms", FieldType.INT64),
        ("actuated_ms", FieldType.INT64),
        ("delay_ms", FieldType.INT64),
    ]
)


class TelemetrySource(StreamSource):
    """Ingests the (synthetic) DEBS equipment telemetry."""

    def __init__(self):
        super().__init__()
        self.stream = ManufacturingStream(
            period_ms=10, state_change_prob=0.004, seed=2016
        )
        self._packets = self.stream.packets(N_RECORDS)

    def generate(self, ctx):
        try:
            pkt = next(self._packets)
        except StopIteration:
            ctx.finish()
            return
        out = ctx.new_packet()
        out.copy_from(pkt)
        ctx.emit(out)

    def output_schema(self, stream):
        return MANUFACTURING_SCHEMA


class StateChangeDetector(StreamProcessor):
    """Stage 2: turn level telemetry into edge events (per sensor).

    The paper's job uses only 6 of the 66 fields + the timestamp; this
    stage performs that projection as well.
    """

    def __init__(self):
        super().__init__()
        self._last: dict[tuple[int, str], bool] = {}

    def process(self, packet, ctx):
        ts = packet.get("ts")
        for sensor in range(3):
            for kind, fname in (
                ("sensor", f"additive_sensor_{sensor + 1}"),
                ("valve", f"valve_{sensor + 1}"),
            ):
                state = packet.get(fname)
                key = (sensor, kind)
                if key in self._last and self._last[key] != state:
                    event = ctx.new_packet()
                    event.set("ts", ts)
                    event.set("sensor", sensor)
                    event.set("kind", kind)
                    event.set("state", state)
                    ctx.emit(event)
                self._last[key] = state

    def output_schema(self, stream):
        return EVENT


class DelayMatcher(StreamProcessor):
    """Stage 3: pair each sensor change with its valve actuation."""

    def __init__(self):
        super().__init__()
        self._pending: dict[int, int] = {}  # sensor → change ts

    def process(self, packet, ctx):
        sensor = packet.get("sensor")
        if packet.get("kind") == "sensor":
            self._pending[sensor] = packet.get("ts")
            return
        changed = self._pending.pop(sensor, None)
        if changed is None:
            return  # valve event without a tracked change (startup)
        out = ctx.new_packet()
        out.set("sensor", sensor)
        out.set("changed_ms", changed)
        out.set("actuated_ms", packet.get("ts"))
        out.set("delay_ms", packet.get("ts") - changed)
        ctx.emit(out)

    def output_schema(self, stream):
        return DELAY


class DelayMonitor(StreamProcessor):
    """Stage 4: per-sensor delay statistics over a 24-hour window."""

    def __init__(self, results):
        super().__init__()
        self.windows = {s: SlidingWindow(WINDOW_HOURS * 3600.0) for s in range(3)}
        self.results = results

    def process(self, packet, ctx):
        sensor = packet.get("sensor")
        self.windows[sensor].add(
            packet.get("actuated_ms") / 1000.0, packet.get("delay_ms")
        )
        self.results.append(packet.to_dict())

    def output_schema(self, stream):
        raise KeyError(stream)


def build_graph(monitor=None):
    if monitor is None:
        monitor = DelayMonitor([])
    graph = StreamProcessingGraph(
        "manufacturing-monitoring",
        config=NeptuneConfig(buffer_capacity=128 * 1024, buffer_max_delay=0.010),
    )
    graph.add_source("ingest", TelemetrySource)
    graph.add_processor("detect", StateChangeDetector)
    graph.add_processor("match", DelayMatcher, parallelism=3)
    graph.add_processor("monitor", lambda: monitor)
    # Telemetry is low-entropy → compress this high-volume link.  In
    # production ingest and detect sit on different machines; in this one
    # process the link would be chained (two single-instance operators:
    # no buffer, no bytes), so chain=False keeps the wire the example shows.
    graph.link("ingest", "detect", compression=True, chain=False)
    graph.link(
        "detect", "match", partitioning={"scheme": "fields", "fields": ["sensor"]}
    )
    graph.link("match", "monitor")
    return graph


def main():
    results = []
    monitor = DelayMonitor(results)
    graph = build_graph(monitor)

    with NeptuneRuntime() as runtime:
        handle = runtime.submit(graph)
        ok = handle.await_completion(timeout=180)
        metrics = handle.metrics()

    print(f"completed: {ok}")
    print(f"telemetry records: {metrics['detect']['packets_in']}")
    print(f"edge events:       {metrics['match']['packets_in']}")
    print(f"matched delays:    {len(results)}")
    for sensor in range(3):
        window = monitor.windows[sensor]
        if len(window):
            mean = window.aggregate(lambda v: sum(v) / len(v))
            print(
                f"  additive sensor {sensor + 1}: {len(window)} actuations, "
                f"mean delay {mean:.1f} ms over the 24h window"
            )
    # Wire-level check: the compressed ingest link moved fewer bytes
    # than the serialized telemetry.
    print(
        f"ingest bytes serialized: {metrics['ingest']['bytes_out']}; "
        f"received on the wire: {metrics['detect']['bytes_in']} (compressed)"
    )
    assert metrics["detect"]["packets_in"] == N_RECORDS
    assert results, "expected actuation delays"
    assert metrics["detect"]["bytes_in"] < metrics["ingest"]["bytes_out"]


if __name__ == "__main__":
    main()
