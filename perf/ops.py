"""The benchmark's own operators: sources, relay, aggregate, sink.

They are built from import paths (``descriptor_factory``), so the same
graph runs in-process and on spawned cluster workers, and they hand
their observations back as files in ``out_dir`` when torn down: the
only channel that exists to a worker process.  Everything the sink
derives (audit, percentiles) happens in ``teardown``, after the
process meter has closed the job's CPU window.

With ``traced`` set (the traced pass only) every operator also records
a span per batch it handles: name, parent, start, end, the CPU its
thread spent inside, and ``first``, the number of packets the instance
had taken before — on the relays the batch's first ``seq``, which the
spans one batch causes downstream share.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench.harness import percentile
from repro.core.fieldtypes import FieldType
from repro.core.operators import EmitContext, StreamProcessor, StreamSource
from repro.core.packet import PacketSchema, StreamPacket

from perf import workloads
from perf.audit import audit, summaries_equal
from perf.meter import PROCESS_METER

RELAY_SCHEMA = PacketSchema(
    [
        ("seq", FieldType.INT64),
        ("emit_ts", FieldType.FLOAT64),
        ("reading", FieldType.FLOAT64),
    ]
)
SENSOR_SCHEMA = PacketSchema(
    [("sensor_id", FieldType.STRING), ("ts", FieldType.INT64)]
    + [(f"r{i}", FieldType.FLOAT32) for i in range(6)]
    + [("status", FieldType.STRING)]
)
SUMMARY_SCHEMA = PacketSchema(
    [
        ("sensor_id", FieldType.STRING),
        ("window", FieldType.INT64),
        ("count", FieldType.INT32),
        ("mean", FieldType.FLOAT64),
        ("last_ts", FieldType.INT64),
    ]
)

#: Share of a trial's deliveries dropped from each end before rates and
#: latencies are taken: the pipeline fills with cold caches, and drains
#: with the source gone and its CPU share handed to the other stages.
EDGE_FRACTION = 0.10
#: Scheduling quanta one source span covers (a source has no batches).
SOURCE_SPAN_QUANTA = 1024


class _Reporting:
    """Mixin: joins the process meter, records spans when traced, and
    writes ``report()`` to ``out_dir`` at teardown."""

    #: Operator whose output this one consumes (None for a source).
    parent: str | None = None

    def __init__(self, out_dir: str, traced: bool = False) -> None:
        super().__init__()
        self.out_dir = out_dir
        self.spans: list[dict] | None = [] if traced else None
        self._taken = 0
        self._open = (0, 0.0, 0.0)
        self._index = 0

    def setup(self, ctx: EmitContext) -> None:
        self._index = ctx.instance_index
        PROCESS_METER.enter()

    def teardown(self) -> None:
        PROCESS_METER.leave(self.out_dir)
        report = self.report()
        if self.spans is not None:
            report["spans"] = self.spans
        if report:
            path = os.path.join(self.out_dir, f"{self.name}-{self._index}.json")  # type: ignore[attr-defined]
            with open(path, "w") as fh:
                json.dump(report, fh)

    def report(self) -> dict:
        """What this operator observed, beyond its spans."""
        return {}

    def _span(self, packets: int, start: float, cpu: float) -> None:
        assert self.spans is not None
        self.spans.append(
            {
                "name": f"{self.name}[{self._index}]",  # type: ignore[attr-defined]
                "parent": self.parent,
                "first": self._taken,
                "packets": packets,
                "start": start,
                "end": time.monotonic(),
                "cpu": cpu,
            }
        )
        self._taken += packets

    # Processors only: the runtime brackets each inbound batch.
    def on_batch_start(self, size: int, ctx: EmitContext) -> None:
        if self.spans is not None:
            self._open = (size, time.monotonic(), time.thread_time())

    def on_batch_end(self, ctx: EmitContext) -> None:
        if self.spans is not None:
            size, start, cpu0 = self._open
            self._span(size, start, time.thread_time() - cpu0)


# -- sources -------------------------------------------------------------------


class _Source(_Reporting, StreamSource):
    """``generate`` = one scheduling quantum of ``emit_next``, timed
    when traced."""

    total: int
    i = 0

    def generate(self, ctx: EmitContext) -> None:
        if self.i >= self.total:
            ctx.finish()
            return
        if self.spans is None:
            self.emit_next(ctx)
            return
        if self._open[0] == 0:
            self._open = (1, time.monotonic(), 0.0)
        cpu0 = time.thread_time()
        self.emit_next(ctx)
        quanta, start, cpu = self._open
        cpu += time.thread_time() - cpu0
        if quanta >= SOURCE_SPAN_QUANTA or self.i >= self.total:
            self._span(self.i - self._taken, start, cpu)
            self._open = (0, 0.0, 0.0)
        else:
            self._open = (quanta + 1, start, cpu)

    def emit_next(self, ctx: EmitContext) -> None:
        raise NotImplementedError


class RelaySource(_Source):
    """Closed loop: one stamped packet per scheduling quantum, as fast
    as backpressure admits (``repro bench``'s relay source)."""

    def __init__(self, total: int, seed: int, out_dir: str, traced: bool = False):
        super().__init__(out_dir, traced)
        self.total = total
        self.readings = workloads.relay_readings(seed, total)

    def emit_next(self, ctx: EmitContext) -> None:
        i = self.i
        pkt = ctx.new_packet()
        pkt.set_at(0, i)
        pkt.set_at(1, time.monotonic())
        pkt.set_at(2, self.readings[i])
        ctx.emit(pkt)
        self.i = i + 1

    def output_schema(self, stream: str) -> PacketSchema:
        return RELAY_SCHEMA


class PacedSource(RelaySource):
    """Open loop: every ``PACED_TICK`` a burst falls due, whether or not
    the system kept up.  Packets carry their *due* time, so a stall
    shows as latency of the packets it delayed, and how late each burst
    left is reported."""

    def __init__(
        self, total: int, seed: int, out_dir: str, rate: float, traced: bool = False
    ):
        super().__init__(total, seed, out_dir, traced)
        self.burst = round(rate * workloads.PACED_TICK)
        self.t0: float | None = None
        self.late: list[float] = []

    def emit_next(self, ctx: EmitContext) -> None:
        first = self.i
        if self.t0 is None:
            self.t0 = time.monotonic()
        due = self.t0 + (first // self.burst) * workloads.PACED_TICK
        wait = due - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        self.late.append(time.monotonic() - due)
        readings = self.readings
        end = min(first + self.burst, self.total)
        for i in range(first, end):
            pkt = ctx.new_packet()
            pkt.set_at(0, i)
            pkt.set_at(1, due)
            pkt.set_at(2, readings[i])
            ctx.emit(pkt)
        self.i = end

    def report(self) -> dict:
        return {"late_ms_p95": percentile(self.late, 0.95) * 1e3}


class SensorSource(_Source):
    """Closed loop over the DEBS-like keyed records."""

    def __init__(self, total: int, seed: int, out_dir: str, traced: bool = False):
        super().__init__(out_dir, traced)
        self.total = total
        self.records = [
            (workloads.sensor_name(r[0]), *r[1:7], workloads.STATUSES[r[7]])
            for r in workloads.sensor_records(seed, total)
        ]

    def emit_next(self, ctx: EmitContext) -> None:
        i = self.i
        sensor_id, r0, r1, r2, r3, r4, r5, status = self.records[i]
        pkt = ctx.new_packet()
        pkt.set_at(0, sensor_id)
        pkt.set_at(1, time.monotonic_ns())
        pkt.set_at(2, r0)
        pkt.set_at(3, r1)
        pkt.set_at(4, r2)
        pkt.set_at(5, r3)
        pkt.set_at(6, r4)
        pkt.set_at(7, r5)
        pkt.set_at(8, status)
        ctx.emit(pkt)
        self.i = i + 1

    def output_schema(self, stream: str) -> PacketSchema:
        return SENSOR_SCHEMA


# -- processors ------------------------------------------------------------------


class Relay(_Reporting, StreamProcessor):
    """Pass-through hop (the paper's Fig. 1 relay stage)."""

    parent = "source"

    def process(self, packet: StreamPacket, ctx: EmitContext) -> None:
        out = ctx.new_packet()
        out.set_at(0, packet.get_at(0))
        out.set_at(1, packet.get_at(1))
        out.set_at(2, packet.get_at(2))
        ctx.emit(out)

    def output_schema(self, stream: str) -> PacketSchema:
        return RELAY_SCHEMA


class Aggregate(_Reporting, StreamProcessor):
    """Stateful per-sensor tumbling mean of ``r0`` over ``WINDOW``
    packets; the summary carries the creation stamp of the last packet
    that contributed to it."""

    parent = "source"

    def __init__(self, out_dir: str, traced: bool = False) -> None:
        super().__init__(out_dir, traced)
        self.state: dict[str, list] = {}

    def process(self, packet: StreamPacket, ctx: EmitContext) -> None:
        sensor_id = packet.get_at(0)
        state = self.state.get(sensor_id)
        if state is None:
            state = self.state[sensor_id] = [0, 0.0, 0]  # count, sum, window
        state[0] += 1
        state[1] += packet.get_at(2)
        if state[0] == workloads.WINDOW:
            out = ctx.new_packet()
            out.set_at(0, sensor_id)
            out.set_at(1, state[2])
            out.set_at(2, state[0])
            out.set_at(3, state[1] / state[0])
            out.set_at(4, packet.get_at(1))
            ctx.emit(out)
            state[0] = 0
            state[1] = 0.0
            state[2] += 1

    def output_schema(self, stream: str) -> PacketSchema:
        return SUMMARY_SCHEMA


class Sink(_Reporting, StreamProcessor):
    """Terminal stage: keeps every arrival with its receipt time, then
    audits them and reduces them to the trial's numbers in ``teardown``."""

    def __init__(
        self,
        total: int,
        seed: int,
        out_dir: str,
        keyed: bool,
        traced: bool = False,
    ) -> None:
        super().__init__(out_dir, traced)
        self.total = total
        self.seed = seed
        self.keyed = keyed
        self.parent = "aggregate" if keyed else "relay"
        self.rows: list[tuple] = []
        self.received: list[float] = []
        self.batch_ends: list[tuple[int, float]] = []

    def process(self, packet: StreamPacket, ctx: EmitContext) -> None:
        self.rows.append(packet.values)
        self.received.append(time.monotonic())

    def on_batch_end(self, ctx: EmitContext) -> None:
        super().on_batch_end(ctx)
        self.batch_ends.append((len(self.rows), time.monotonic()))

    def output_schema(self, stream: str) -> PacketSchema:
        raise KeyError(stream)  # terminal stage: no outputs

    def report(self) -> dict:
        rows, received = self.rows, self.received
        if self.keyed:
            expected = workloads.reference_fold(
                workloads.sensor_records(self.seed, self.total)
            )
            arrivals = ((r[0], r[1], (r[2], r[3])) for r in rows)
            result = audit(expected, arrivals, workloads.WINDOW, summaries_equal)
            created = [r[4] / 1e9 for r in rows]
            weight = workloads.WINDOW
        else:
            readings = workloads.relay_readings(self.seed, self.total)
            result = audit({0: readings}, ((0, r[0], r[2]) for r in rows))
            created = [r[1] for r in rows]
            weight = 1
        report: dict = {"audit": result.as_dict()}
        skip = int(len(rows) * EDGE_FRACTION)
        stop = len(rows) - skip
        # Arrivals come in bursts of one batch, so the rate is taken
        # between two batch ends: both edges at the same phase.
        opened = next((end for end in self.batch_ends if end[0] >= skip), (0, 0.0))
        closed = next((end for end in self.batch_ends if end[0] >= stop), opened)
        if result.failed or closed[0] <= opened[0]:
            return report  # nothing, or too little, to time
        latencies = [
            got - made for got, made in zip(received[skip:stop], created[skip:stop])
        ]
        report.update(
            first_created=min(created),
            last_received=received[-1],
            window_packets=(closed[0] - opened[0]) * weight,
            window_seconds=closed[1] - opened[1],
            latency_samples=len(latencies),
            latency_p50_ms=percentile(latencies, 0.50) * 1e3,
            latency_p95_ms=percentile(latencies, 0.95) * 1e3,
            latency_p99_ms=percentile(latencies, 0.99) * 1e3,
        )
        return report
