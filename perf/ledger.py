"""The traced pass's layer measurements and the reconciled ledger.

``python -m perf.ledger '<json spec>'`` runs pinned in its own process,
like a trial.  For every link of the workload it calls each layer's
public functions on the workload's real records, at the batch size the
receiving operator saw in the traced trials, with a span around every
call group; CPU comes from ``thread_time`` and is scaled to reference
speed by a probe run on either side of the span.  It also runs the
workload's operators inline, single-threaded with no runtime, as the
baseline.

The ledger is the sum, over links and layers, of unit cost x how often
a source packet pays it.  Whatever part of the end-to-end
``cpu_us_per_packet`` that sum does not reach is printed as
``unattributed``, never dropped.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass

from repro.compression import CompressionPolicy, sampled_entropy
from repro.core.buffering import StreamBuffer
from repro.core.config import NeptuneConfig
from repro.core.object_pool import ObjectPool
from repro.core.packet import PacketSchema, StreamPacket
from repro.core.partitioning import (
    FieldsPartitioning,
    PartitioningScheme,
    RoundRobinPartitioning,
)
from repro.core.serde import PacketCodec
from repro.granules.dataset import QueueDataset
from repro.granules.resource import Resource
from repro.granules.scheduler import DataDrivenStrategy
from repro.granules.task import ComputationalTask
from repro.lz4 import compress as lz4_compress
from repro.net.flowcontrol import WatermarkChannel
from repro.net.framing import FrameDecoder, FrameEncoder
from repro.net.transport import TcpListener, TcpTransport

from perf import ops, workloads
from perf.meter import PROBE_LOOPS, at_reference, probe_once
from perf.trial import AGGREGATES
from perf.workloads import WORKLOADS, Workload

#: Spans per layer measurement, and the least units one span covers.
REPS = 7
SPAN_UNITS = 1024
#: Frames per framing span: a frame's checksum alone costs milliseconds.
FRAME_REPEAT = 4
DISPATCHES = 300
STAMP_NS = 40_000_000_000_000
TRANSPORT_FRAMES = 40


class Spans:
    """Spans of the layer measurements, kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name, link, start, end, cpu, units, probe_cpu) -> float:
        """Record one span whose ``cpu`` seconds paid for ``units`` and
        was bracketed by two probes; returns CPU-ns per unit at
        reference speed."""
        speed = 2 * PROBE_LOOPS / probe_cpu / 1e6
        self.spans.append(
            {
                "name": name,
                "parent": f"ledger:{link}",
                "start": start,
                "end": end,
                "cpu": cpu,
                "units": units,
                "speed_mloops": speed,
            }
        )
        return at_reference(cpu / units * 1e9, speed)

    def timed(self, name, link, units: int, fn, setup=None, repeat=None) -> float:
        """Median over ``REPS`` spans of the CPU-ns per unit of ``fn()``,
        which pays for ``units``; ``setup()`` runs before each, untimed.
        A span calls ``fn`` ``repeat`` times, by default until it covers
        ``SPAN_UNITS``."""
        if repeat is None:
            repeat = 1 if setup else max(1, SPAN_UNITS // units)
        costs = []
        for _ in range(REPS):
            if setup:
                setup()
            before = probe_once()
            start = time.monotonic()
            cpu0 = time.thread_time()
            for _ in range(repeat):
                fn()
            cpu = time.thread_time() - cpu0
            end = time.monotonic()
            probe_cpu = before + probe_once()
            costs.append(
                self.add(name, link, start, end, cpu, units * repeat, probe_cpu)
            )
        return statistics.median(costs)


@dataclass
class Link:
    """One link of the workload, with the records that really cross it."""

    name: str
    schema: PacketSchema
    packets: list[StreamPacket]
    scheme: PartitioningScheme
    n_dest: int
    #: Packets on this link per source packet.
    share: float
    #: Packets per batch the receiver saw (public operator metrics).
    batch: int
    compressed: bool
    crosses_socket: bool


def _packets(schema: PacketSchema, rows: list[tuple]) -> list[StreamPacket]:
    return [schema.new_packet(**dict(zip(schema.names, row))) for row in rows]


def links_of(workload: Workload, seed: int, count: int, operators: dict) -> list[Link]:
    """The workload's links, fed what ``seed`` generates."""

    def batch(receiver: str) -> int:
        m = operators[receiver]
        return max(1, round(m["packets_in"] / max(1, m["batches_in"])))

    if workload.keyed:
        records = workloads.sensor_records(seed, count)
        # Creation stamps as a trial's look: nanoseconds, ~60 us apart.
        rows = [
            (workloads.sensor_name(r[0]), STAMP_NS + i * 60_000, *r[1:7], workloads.STATUSES[r[7]])
            for i, r in enumerate(records)
        ]
        summaries = [
            (key, window, n, mean, STAMP_NS + window * 960_000)
            for key, folds in workloads.reference_fold(records).items()
            for window, (n, mean) in enumerate(folds)
        ]
        return [
            Link(
                "source->aggregate",
                ops.SENSOR_SCHEMA,
                _packets(ops.SENSOR_SCHEMA, rows),
                FieldsPartitioning(["sensor_id"]),
                AGGREGATES,
                1.0,
                batch("aggregate"),
                True,
                False,
            ),
            Link(
                "aggregate->sink",
                ops.SUMMARY_SCHEMA,
                _packets(ops.SUMMARY_SCHEMA, summaries),
                RoundRobinPartitioning(),
                1,
                1.0 / workloads.WINDOW,
                batch("sink"),
                True,
                False,
            ),
        ]
    rows = [
        (i, 1000.0 + i * 1e-4, reading)
        for i, reading in enumerate(workloads.relay_readings(seed, count))
    ]
    packets = _packets(ops.RELAY_SCHEMA, rows)
    return [
        Link(
            f"{a}->{b}",
            ops.RELAY_SCHEMA,
            packets,
            RoundRobinPartitioning(),
            1,
            1.0,
            batch(b),
            False,
            workload.cluster,
        )
        for a, b in (("source", "relay"), ("relay", "sink"))
    ]


def measure_link(link: Link, spans: Spans) -> dict:
    """Unit costs of every layer on ``link`` (CPU-ns at reference speed)."""
    n = min(link.batch, len(link.packets))
    packets = link.packets[:n]
    codec = PacketCodec(link.schema)
    defaults = NeptuneConfig()
    out: dict = {}

    def encode() -> None:
        for pkt in packets:
            codec.encode_view(pkt)

    out["serde.encode_ns_per_packet"] = spans.timed("serde.encode", link.name, n, encode)
    body = codec.encode_batch(packets)
    records = [bytes(codec.encode_view(pkt)) for pkt in packets]
    out["serde.bytes_per_packet"] = len(body) / n

    def decode() -> None:
        for _ in codec.iter_decode(body, count=n, reuse=True):
            pass

    out["serde.decode_ns_per_packet"] = spans.timed("serde.decode", link.name, n, decode)

    scheme, n_dest = link.scheme, link.n_dest

    def route() -> None:
        for pkt in packets:
            scheme.route(pkt, n_dest)

    out["partitioning.route_ns_per_packet"] = spans.timed(
        "partitioning.route", link.name, n, route
    )
    load = [0] * n_dest
    for pkt in link.packets:
        for dest in scheme.route(pkt, n_dest):
            load[dest] += 1
    out["partitioning.skew_max_over_mean"] = max(load) / (sum(load) / n_dest)

    pool = ObjectPool(
        factory=lambda: StreamPacket(link.schema), reset=StreamPacket.reset, max_size=256
    )

    def lease() -> None:
        for _ in range(n):
            pool.release(pool.acquire())

    out["pool.acquire_release_ns_per_packet"] = spans.timed(
        "pool.acquire_release", link.name, n, lease
    )
    out["pool.reuse_ratio"] = pool.reuse_ratio

    # Capacity out of reach: the flush is timed on its own, not inside
    # the append that would have tripped it.
    buffer = StreamBuffer(
        capacity=1 << 30, sink=lambda data, count: buffer.recycle(data), max_delay=3600.0
    )

    def append() -> None:
        for record in records:
            buffer.append(record)

    out["buffering.append_ns_per_packet"] = spans.timed(
        "buffering.append", link.name, n, append
    )
    buffer.flush()

    out["buffering.flush_ns_per_batch"] = spans.timed(
        "buffering.flush", link.name, 1, buffer.flush, setup=append
    )
    out["buffering.packets_per_batch"] = float(link.batch)

    for name in ("gate_ns_per_byte", "lz4_ns_per_byte", "decode_ns_per_byte"):
        out[f"compression.{name}"] = 0.0
    out["compression.ratio"] = 1.0
    out["compression.compressed_frac"] = 0.0
    wire_body: bytes = body
    if link.compressed:
        policy = CompressionPolicy(
            enabled=True,
            entropy_threshold=defaults.compression_entropy_threshold,
            min_size=defaults.compression_min_size,
        )
        out["compression.gate_ns_per_byte"] = spans.timed(
            "compression.gate", link.name, len(body), lambda: sampled_entropy(body)
        )
        out["compression.lz4_ns_per_byte"] = spans.timed(
            "compression.lz4", link.name, len(body), lambda: lz4_compress(body)
        )
        # Every batch of the trial, so the ratio is the stream's.
        for at in range(0, len(link.packets) - n + 1, n):
            wire_body = policy.encode(codec.encode_batch(link.packets[at : at + n]))
        out["compression.ratio"] = policy.stats.ratio
        out["compression.compressed_frac"] = (
            policy.stats.payloads_compressed / policy.stats.payloads_seen
        )
        out["compression.decode_ns_per_byte"] = spans.timed(
            "compression.decode",
            link.name,
            len(body),
            lambda: CompressionPolicy.decode(wire_body),
        )

    encoder = FrameEncoder()
    out["framing.encode_ns_per_frame"] = spans.timed(
        "framing.encode",
        link.name,
        1,
        lambda: encoder.encode_parts(0, wire_body, n),
        repeat=FRAME_REPEAT,
    )
    header, _ = FrameEncoder().encode_parts(0, wire_body, n)
    wire = header + wire_body
    out["framing.overhead_bytes_per_frame"] = float(len(header))
    out["framing.decode_ns_per_frame"] = spans.timed(
        "framing.decode",
        link.name,
        1,
        lambda: FrameDecoder(verify_sequence=False).feed(wire),
        repeat=FRAME_REPEAT,
    )

    channel = WatermarkChannel(
        defaults.inbound_high_watermark, defaults.low_watermark()
    )

    def put_drain() -> None:
        channel.put(len(wire_body), wire_body)
        channel.drain()

    out["flowcontrol.put_drain_ns_per_frame"] = spans.timed(
        "flowcontrol.put_drain", link.name, 1, put_drain, repeat=SPAN_UNITS // 8
    )

    for name in ("tcp_ns_per_frame", "unix_ns_per_frame", "tcp_mb_per_s"):
        out[f"transport.{name}"] = 0.0
    if link.crosses_socket:
        out.update(measure_transport(wire_body, n, link.name, spans))
    return out


def measure_transport(body: bytes, count: int, link: str, spans: Spans) -> dict:
    """``TcpTransport.send`` to a ``TcpListener`` over loopback, ack-replay
    on, both fabrics.  Sender, reader and ack threads all work, so the
    cost is process CPU, bracketed by the probe like a span."""
    out = {}
    retry = NeptuneConfig().retry_policy()
    # Relative to the checkout (the child's cwd): AF_UNIX paths are short.
    socket_path = os.path.join("perf", "out", f"ledger-{os.getpid()}.sock")
    for fabric, host in (("tcp", "127.0.0.1"), ("unix", f"unix:{socket_path}")):
        arrived = threading.Semaphore(0)
        listener = TcpListener(
            host, 0, sink=lambda frame: arrived.release(), ack=True, resume=True
        )
        transport = TcpTransport(listener.host, listener.port, retry=retry)
        try:
            before = probe_once()
            start = time.monotonic()
            cpu0 = time.process_time()
            for _ in range(TRANSPORT_FRAMES):
                transport.send(0, body, count)
            for _ in range(TRANSPORT_FRAMES):
                if not arrived.acquire(timeout=30):
                    raise RuntimeError(f"{fabric} loopback lost a frame")
            cpu = time.process_time() - cpu0
            end = time.monotonic()
            probe_cpu = before + probe_once()
        finally:
            transport.close()
            listener.close()
        out[f"transport.{fabric}_ns_per_frame"] = spans.add(
            f"transport.{fabric}", link, start, end, cpu, TRANSPORT_FRAMES, probe_cpu
        )
        if fabric == "tcp":
            out["transport.tcp_mb_per_s"] = (
                TRANSPORT_FRAMES * len(body) / (end - start) / 1e6
            )
    return out


class _Stamped(ComputationalTask):
    """Drains stamps and records how long each waited for ``execute``."""

    def __init__(self) -> None:
        super().__init__("perf-dispatch")
        self.queue = QueueDataset("stamps")
        self.attach_dataset(self.queue)
        self.waits: list[float] = []
        self.ran = threading.Semaphore(0)

    def execute(self, context=None) -> None:
        now = time.monotonic()
        for stamp in self.queue.drain():
            self.waits.append(now - stamp)
            self.ran.release()


def measure_dispatch() -> float:
    """Median data-available -> ``execute`` delay of an idle Resource, us."""
    task = _Stamped()
    with Resource("perf-dispatch", workers=2) as resource:
        resource.launch(task, DataDrivenStrategy())
        for _ in range(DISPATCHES):
            task.queue.put(time.monotonic())
            if not task.ran.acquire(timeout=10):
                raise RuntimeError("dispatch probe: task never ran")
    return statistics.median(task.waits) * 1e6


class _Inline:
    """EmitContext with no runtime behind it: ``emit`` calls the next
    operator's ``process`` on the same thread."""

    instance_index = 0
    parallelism = 1

    def __init__(self, schema: PacketSchema | None, downstream=None, ctx=None) -> None:
        self._packet = StreamPacket(schema) if schema is not None else None
        self._downstream = downstream
        self._ctx = ctx
        self.finished = False

    def new_packet(self, stream=None) -> StreamPacket:
        assert self._packet is not None
        return self._packet

    def emit(self, packet: StreamPacket, stream=None) -> None:
        self._downstream.process(packet, self._ctx)

    def finish(self) -> None:
        self.finished = True


def measure_inline(workload: Workload, seed: int, count: int, spans: Spans) -> float:
    """Packets/s at reference speed of the workload's own operators run
    inline; checks that every packet reached the sink."""
    if workload.keyed:
        source = ops.SensorSource(count, seed, "")
        middle: ops.StreamProcessor = ops.Aggregate("")
        schemas = (ops.SENSOR_SCHEMA, ops.SUMMARY_SCHEMA)
        expected = count // workloads.WINDOW
    else:
        source = ops.RelaySource(count, seed, "")
        middle = ops.Relay("")
        schemas = (ops.RELAY_SCHEMA, ops.RELAY_SCHEMA)
        expected = count
    sink = ops.Sink(count, seed, "", workload.keyed)
    middle_ctx = _Inline(schemas[1], sink, _Inline(None))
    source_ctx = _Inline(schemas[0], middle, middle_ctx)

    def run() -> None:
        while not source_ctx.finished:
            source.generate(source_ctx)

    before = probe_once()
    start = time.monotonic()
    cpu0 = time.thread_time()
    run()
    cpu = time.thread_time() - cpu0
    end = time.monotonic()
    probe_cpu = before + probe_once()
    if len(sink.rows) != expected:
        raise RuntimeError(f"inline baseline delivered {len(sink.rows)}/{expected}")
    return 1e9 / spans.add("runtime.inline", "-", start, end, cpu, count, probe_cpu)


def build_ledger(links: list[Link], costs: list[dict], inline_pps: float) -> list[dict]:
    """Rows ``layer @ link: unit cost x per-packet multiplicity``."""
    rows = []

    def row(layer: str, link: Link, unit_ns: float, per_packet: float) -> None:
        if per_packet and unit_ns > 0:
            rows.append(
                {
                    "layer": layer,
                    "link": link.name,
                    "unit_ns": unit_ns,
                    "per_packet": per_packet,
                    "ns_per_packet": unit_ns * per_packet,
                }
            )

    for link, cost in zip(links, costs):
        per_batch = link.share / link.batch
        raw_bytes = cost["serde.bytes_per_packet"] * link.share
        row("pool.acquire_release", link, cost["pool.acquire_release_ns_per_packet"], link.share)
        row("partitioning.route", link, cost["partitioning.route_ns_per_packet"], link.share)
        row("serde.encode", link, cost["serde.encode_ns_per_packet"], link.share)
        row("buffering.append", link, cost["buffering.append_ns_per_packet"], link.share)
        row("buffering.flush", link, cost["buffering.flush_ns_per_batch"], per_batch)
        row("compression.gate", link, cost["compression.gate_ns_per_byte"], raw_bytes)
        row("compression.lz4", link, cost["compression.lz4_ns_per_byte"], raw_bytes)
        if link.crosses_socket:
            # send() frames and the listener unframes: the transport's
            # own share is what the loopback costs beyond the two.
            framing = cost["framing.encode_ns_per_frame"] + cost["framing.decode_ns_per_frame"]
            row("framing.encode", link, cost["framing.encode_ns_per_frame"], per_batch)
            row(
                "transport.tcp less framing",
                link,
                cost["transport.tcp_ns_per_frame"] - framing,
                per_batch,
            )
            row("framing.decode", link, cost["framing.decode_ns_per_frame"], per_batch)
        row("flowcontrol.put_drain", link, cost["flowcontrol.put_drain_ns_per_frame"], per_batch)
        row("compression.decode", link, cost["compression.decode_ns_per_byte"], raw_bytes)
        row("serde.decode", link, cost["serde.decode_ns_per_packet"], link.share)
    rows.append(
        {
            "layer": "operators (inline)",
            "link": "-",
            "unit_ns": 1e9 / inline_pps,
            "per_packet": 1.0,
            "ns_per_packet": 1e9 / inline_pps,
        }
    )
    return rows


def run(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    spans = Spans()
    links = links_of(workload, spec["seed"], spec["packets"], spec["operators"])
    costs: list[dict] = []
    for link in links:
        # The relays' two links carry the same records the same way.
        same = next(
            (c for l, c in zip(links, costs) if l.packets is link.packets and l.batch == link.batch),
            None,
        )
        costs.append(same or measure_link(link, spans))
    inline_pps = measure_inline(workload, spec["seed"], spec["packets"], spans)
    return {
        "layers": costs[0],
        "dispatch_us_p50": measure_dispatch(),
        "inline_pps": inline_pps,
        "rows": build_ledger(links, costs, inline_pps),
        "spans": spans.spans,
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    print(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
