"""The pinned hot-path benchmark scenarios.

Three scenarios cover the layers the paper optimizes (§III-B):

- ``codec`` — encode/decode messages/sec for the schema-compiled codec
  *and* the per-field reference codec on a fixed-width-dominated
  schema, plus the speedup ratios between them (the acceptance metric
  for the compiled-codec work); the compiled codec again on a
  variable-width sensor record (STRING, fixed run, STRING: the shaped
  layouts), and LZ4 compress/decompress MB/s and ratio on a batch of
  those records (the keyed, compressed link's kernels).
- ``buffer`` — appends/sec through a capacity-flushing
  :class:`~repro.core.buffering.StreamBuffer` whose sink recycles, so
  the double-buffer swap path (not the allocator) is what's measured.
- ``relay`` — end-to-end packets/sec and p50/p99 emit-to-process
  latency through a real source → relay → sink job on the local
  runtime, reported against the ``max_delay`` latency bound.
- ``health`` — the same relay job run twice, interleaved: bare vs with
  a :class:`~repro.observe.health.HealthEngine` scanning SLO monitors
  in the background.  The acceptance metric is ``overhead_frac``: the
  monitors must cost < 3% of bare throughput (asserted in-scenario on
  non-smoke profiles, mirroring the relay lost-packet check).
- ``collector`` — the relay job as a two-worker in-process
  distributed job, run collector-off vs collector-on (a
  :class:`~repro.observe.collector.DeltaSource` shipping bounded
  telemetry deltas into a polling
  :class:`~repro.observe.collector.ClusterCollector`).  Guarded the
  same two ways as ``health``: the collector's poll duty cycle must
  stay < 3% of the run, with a 25% A/B wall-clock backstop.
- ``cluster_scaling`` — aggregate relay throughput through real worker
  *processes* (the ``repro.cluster`` coordinator) at each worker count
  in the profile; the guarded metric is the scale-up ratio between the
  largest and smallest count.  Skipped on the smoke tier: tier-1 test
  runs must never spawn processes.
- ``policy`` — the closed loop: a sink paying a fixed per-batch
  overhead drowns in deliberately tiny frames, breaches a
  ``buffer_occupancy`` SLO, and a
  :class:`~repro.observe.policy.PolicyEngine` retunes the legs feeding
  it live (no restart).  Guarded three ways on non-smoke tiers: the
  policy must act, the drain must beat the policy-off control by ≥25%
  (the heal is real, not a timer artifact), and the whole observe+
  decide plane (health scans + diagnose + decide) must cost < 3% of
  the healed run's wall time.
"""

from __future__ import annotations

import gc
import time

from repro.bench.harness import BenchProfile, BenchResult, best_rate, percentile
from repro.core.buffering import StreamBuffer
from repro.core.config import NeptuneConfig
from repro.core.fieldtypes import FieldType
from repro.core.graph import StreamProcessingGraph
from repro.core.operators import EmitContext, StreamProcessor, StreamSource
from repro.core.packet import PacketSchema, StreamPacket
from repro.core.runtime import NeptuneRuntime
from repro.core.serde import PacketCodec
from repro.lz4 import compress as lz4_compress, decompress as lz4_decompress

#: Fixed-width-dominated schema: the compiled codec's best case and the
#: shape the paper's sensing workloads actually have (ids + readings).
FIXED_SCHEMA = PacketSchema(
    [
        ("valid", FieldType.BOOL),
        ("sensor", FieldType.INT32),
        ("seq", FieldType.INT64),
        ("ts", FieldType.FLOAT64),
        ("reading", FieldType.FLOAT64),
        ("temperature", FieldType.FLOAT32),
        ("station", FieldType.INT32),
        ("flags", FieldType.INT64),
    ]
)

#: Variable-width sensor record (a keyed DEBS-like reading): every
#: record of a stream like this has the same shape, the case the
#: codec's shaped layouts are for.
SENSOR_SCHEMA = PacketSchema(
    [("sensor_id", FieldType.STRING), ("ts", FieldType.INT64)]
    + [(f"r{i}", FieldType.FLOAT32) for i in range(6)]
    + [("status", FieldType.STRING)]
)
#: Records per LZ4 batch: 56-byte records, one 8 KiB flush.
SENSOR_BATCH = 147

#: Relay-pipeline schema: one stamp, one payload value.
RELAY_SCHEMA = PacketSchema(
    [
        ("seq", FieldType.INT64),
        ("emit_ts", FieldType.FLOAT64),
        ("reading", FieldType.FLOAT64),
    ]
)


def _fixed_packet() -> StreamPacket:
    pkt = StreamPacket(FIXED_SCHEMA)
    pkt.set("valid", True)
    pkt.set("sensor", 1234)
    pkt.set("seq", 2**40 + 7)
    pkt.set("ts", 1_722_000_000.25)
    pkt.set("reading", 21.75)
    pkt.set("temperature", 3.5)
    pkt.set("station", -8)
    pkt.set("flags", 0x5A5A)
    return pkt


def _sensor_packets(count: int) -> list[StreamPacket]:
    """Low-entropy keyed readings: 16 sensors in a fixed interleaving,
    levels (eighths, exact in float32) that step rarely."""
    packets: list[StreamPacket] = []
    for i in range(count):
        key = (i * 7) % 16
        pkt = StreamPacket(SENSOR_SCHEMA)
        pkt.set("sensor_id", f"sensor-{key:02d}")
        pkt.set("ts", 40_000_000_000_000 + i * 60_000)
        for r in range(6):
            pkt.set(f"r{r}", (160 + 29 * key + 3 * r + i // 97) / 8.0)
        pkt.set("status", "warning" if i % 41 == 40 else "nominal")
        packets.append(pkt)
    return packets


def _codec_sensor_metrics(profile: BenchProfile, result: BenchResult) -> None:
    """The variable-width arm and the LZ4 kernels, on sensor records."""
    n_msgs = profile.codec_messages
    packets = _sensor_packets(1000)
    codec = PacketCodec(SENSOR_SCHEMA)
    body = codec.encode_batch(packets)
    rounds = max(1, n_msgs // 1000)

    def encode_run() -> int:
        out = bytearray()
        for _ in range(rounds):
            for pkt in packets:
                codec.encode_into(pkt, out)
        return rounds * 1000

    def decode_run() -> int:
        n = 0
        for _ in range(rounds):
            for _pkt in codec.iter_decode(body, count=1000, reuse=True):
                n += 1
        return n

    result.metrics["encode_var_msgs_per_sec"] = best_rate(
        encode_run, profile.codec_repeats
    )
    result.metrics["decode_var_msgs_per_sec"] = best_rate(
        decode_run, profile.codec_repeats
    )
    batch = codec.encode_batch(packets[:SENSOR_BATCH])
    block = lz4_compress(batch)
    if lz4_decompress(block) != batch:
        raise RuntimeError("codec: LZ4 round trip changed the sensor batch")
    lz4_rounds = max(1, n_msgs // SENSOR_BATCH)

    def compress_run() -> int:
        for _ in range(lz4_rounds):
            lz4_compress(batch)
        return lz4_rounds * len(batch)

    def decompress_run() -> int:
        for _ in range(lz4_rounds):
            lz4_decompress(block)
        return lz4_rounds * len(batch)

    result.metrics["lz4_compress_mb_per_sec"] = (
        best_rate(compress_run, profile.codec_repeats) / 1e6
    )
    result.metrics["lz4_decompress_mb_per_sec"] = (
        best_rate(decompress_run, profile.codec_repeats) / 1e6
    )
    result.metrics["lz4_ratio"] = len(block) / len(batch)


def scenario_codec(profile: BenchProfile) -> BenchResult:
    """Encode/decode throughput, compiled vs per-field reference."""
    result = BenchResult("codec")
    pkt = _fixed_packet()
    n_msgs = profile.codec_messages
    # One shared batch body for the decode side (built once; both
    # codecs decode identical bytes — the wire format is shared).
    body = PacketCodec(FIXED_SCHEMA).encode_batch([pkt] * 1000)
    decode_rounds = max(1, n_msgs // 1000)
    for label, compiled in (("compiled", True), ("legacy", False)):
        codec = PacketCodec(FIXED_SCHEMA, compiled=compiled)

        def encode_run(codec: PacketCodec = codec) -> int:
            out = bytearray()
            for _ in range(n_msgs):
                codec.encode_into(pkt, out)
            return n_msgs

        def decode_run(codec: PacketCodec = codec) -> int:
            n = 0
            for _ in range(decode_rounds):
                for _pkt in codec.iter_decode(body, count=1000, reuse=True):
                    n += 1
            return n

        result.metrics[f"encode_{label}_msgs_per_sec"] = best_rate(
            encode_run, profile.codec_repeats
        )
        result.metrics[f"decode_{label}_msgs_per_sec"] = best_rate(
            decode_run, profile.codec_repeats
        )
    result.metrics["encode_speedup"] = result.metrics[
        "encode_compiled_msgs_per_sec"
    ] / max(result.metrics["encode_legacy_msgs_per_sec"], 1e-9)
    result.metrics["decode_speedup"] = result.metrics[
        "decode_compiled_msgs_per_sec"
    ] / max(result.metrics["decode_legacy_msgs_per_sec"], 1e-9)
    result.metrics["record_size_bytes"] = float(len(body) // 1000)
    _codec_sensor_metrics(profile, result)
    return result


def scenario_buffer(profile: BenchProfile) -> BenchResult:
    """Capacity-flush append rate through the double-buffer swap path."""
    result = BenchResult("buffer")
    payload = bytes(64)
    flushes = 0

    def run() -> int:
        nonlocal flushes

        def sink(body: "bytes | bytearray | memoryview", count: int) -> None:
            nonlocal flushes
            flushes += 1
            buf.recycle(body)

        buf = StreamBuffer(capacity=64 * 1024, sink=sink, max_delay=60.0)
        for _ in range(profile.buffer_appends):
            buf.append(payload)
        buf.flush()
        # Steady state must run on the two pooled bytearrays: more than
        # a handful of fresh allocations means the swap protocol broke.
        result.metrics["spare_allocs"] = float(buf.spare_allocs)
        result.metrics["buffers_recycled"] = float(buf.buffers_recycled)
        return profile.buffer_appends

    result.metrics["appends_per_sec"] = best_rate(run, profile.codec_repeats)
    result.metrics["flushes"] = float(flushes)
    return result


class _RelaySource(StreamSource):
    """Emits ``total`` stamped packets as fast as the runtime allows."""

    def __init__(self, total: int) -> None:
        super().__init__()
        self.total = total
        self.i = 0

    def generate(self, ctx: EmitContext) -> None:
        if self.i >= self.total:
            ctx.finish()
            return
        pkt = ctx.new_packet()
        pkt.set("seq", self.i)
        pkt.set("emit_ts", time.monotonic())
        pkt.set("reading", 20.0 + (self.i % 100) / 10.0)
        ctx.emit(pkt)
        self.i += 1

    def output_schema(self, stream: str) -> PacketSchema:
        return RELAY_SCHEMA


class _Relay(StreamProcessor):
    """Pass-through hop (the paper's Fig. 1 relay stage)."""

    def process(self, packet: StreamPacket, ctx: EmitContext) -> None:
        out = ctx.new_packet()
        out.set("seq", packet.get("seq"))
        out.set("emit_ts", packet.get("emit_ts"))
        out.set("reading", packet.get("reading"))
        ctx.emit(out)

    def output_schema(self, stream: str) -> PacketSchema:
        return RELAY_SCHEMA


class _LatencySink(StreamProcessor):
    """Terminal stage recording source-emit → process latency."""

    def __init__(self) -> None:
        super().__init__()
        self.count = 0
        self.latencies: list[float] = []

    def process(self, packet: StreamPacket, ctx: EmitContext) -> None:
        self.count += 1
        emitted = packet.get("emit_ts")
        self.latencies.append(time.monotonic() - float(emitted))

    def output_schema(self, stream: str) -> PacketSchema:
        raise KeyError(stream)  # terminal stage: no outputs


def scenario_relay(profile: BenchProfile) -> BenchResult:
    """End-to-end source → relay → sink throughput and latency."""
    result = BenchResult("relay")
    sink = _LatencySink()
    graph = StreamProcessingGraph(
        "bench-relay",
        config=NeptuneConfig(
            buffer_capacity=32 * 1024,
            buffer_max_delay=profile.relay_max_delay,
        ),
    )
    graph.add_source("source", lambda: _RelaySource(profile.relay_packets))
    graph.add_processor("relay", _Relay)
    graph.add_processor("sink", lambda: sink)
    graph.link("source", "relay").link("relay", "sink")
    t0 = time.perf_counter()
    with NeptuneRuntime() as runtime:
        handle = runtime.submit(graph)
        if not handle.await_completion(timeout=300):
            raise RuntimeError("relay benchmark did not complete in 300s")
    elapsed = time.perf_counter() - t0
    if sink.count != profile.relay_packets:
        raise RuntimeError(
            f"relay lost packets: {sink.count}/{profile.relay_packets}"
        )
    result.metrics["packets_per_sec"] = sink.count / elapsed if elapsed else 0.0
    result.metrics["p50_latency_sec"] = percentile(sink.latencies, 0.50)
    result.metrics["p99_latency_sec"] = percentile(sink.latencies, 0.99)
    result.metrics["max_delay_bound_sec"] = profile.relay_max_delay
    result.metrics["packets"] = float(sink.count)
    return result


def _timed_relay(
    profile: BenchProfile, monitored: bool
) -> "tuple[float, int, float, float, float]":
    """One relay run; returns ``(rate, scans, scan_seconds,
    scan_cpu_seconds, elapsed)``.

    With ``monitored=True`` the job runs under a
    :class:`~repro.observe.RuntimeObserver` with a background
    :class:`~repro.observe.HealthEngine` scanning generous (never
    breaching) SLOs — the configuration whose overhead the ``health``
    scenario bounds.
    """
    from repro.observe import HealthEngine, RuntimeObserver, bridge, default_slos

    # The previous arm's job is cyclic garbage: freed in here, the
    # gen-2 pass (~70 ms) can land on the thread being measured.
    gc.collect()
    sink = _LatencySink()
    graph = StreamProcessingGraph(
        "bench-health",
        config=NeptuneConfig(
            buffer_capacity=32 * 1024,
            buffer_max_delay=profile.relay_max_delay,
        ),
    )
    graph.add_source("source", lambda: _RelaySource(profile.relay_packets))
    graph.add_processor("relay", _Relay)
    graph.add_processor("sink", lambda: sink)
    graph.link("source", "relay").link("relay", "sink")

    observer = RuntimeObserver(sample_every=0) if monitored else None
    engine: "HealthEngine | None" = None
    t0 = time.perf_counter()
    with NeptuneRuntime(observer=observer) as runtime:
        handle = runtime.submit(graph)
        if observer is not None:
            registry = observer.registry
            # Budgets far above anything the relay produces: the
            # scenario measures scan overhead, not breach handling.
            slos = default_slos(
                ["source", "relay", "sink"], latency_budget=60.0, e2e_budget=None
            )
            engine = HealthEngine(
                observer,
                slos,
                scrape=lambda: bridge.scrape_job(registry, handle),
                interval=0.1,
            )
            engine.start()
        ok = handle.await_completion(timeout=300)
        if engine is not None:
            engine.stop()
        if not ok:
            raise RuntimeError("health benchmark did not complete in 300s")
    elapsed = time.perf_counter() - t0
    if sink.count != profile.relay_packets:
        raise RuntimeError(
            f"health relay lost packets: {sink.count}/{profile.relay_packets}"
        )
    rate = sink.count / elapsed if elapsed else 0.0
    if engine is None:
        return rate, 0, 0.0, 0.0, elapsed
    return rate, engine.scans, engine.scan_seconds, engine.scan_cpu_seconds, elapsed


def scenario_health(profile: BenchProfile) -> BenchResult:
    """Monitors-on vs monitors-off relay cost (A/B interleaved).

    Two overhead estimates, asserted differently:

    - ``overhead_frac`` — the engine's measured duty cycle (CPU
      seconds of the scanning thread inside ``scan_once`` over
      monitored wall time).  The engine does nothing between scans, so
      this is its whole cost, and it is stable: the <3% acceptance
      budget gates on it (non-smoke tiers).  ``wall_overhead_frac`` is
      the same ratio over wall seconds inside ``scan_once``, reported
      only: one scan that waits a switch interval for the GIL behind
      the busy workers moves it by half a percent of a one-second run.
    - ``ab_overhead_frac`` — best-of-N wall-clock A/B delta.  On a
      shared runner its noise floor (±10%) is an order of magnitude
      above the budget, so it only backstops *catastrophic* regressions
      (>25%, e.g. a scan accidentally landing on the hot path).
    """
    result = BenchResult("health")
    best_off = 0.0
    best_on = 0.0
    scans = 0
    duty = 0.0
    wall_duty = 0.0
    for _ in range(max(1, profile.codec_repeats)):
        off = _timed_relay(profile, monitored=False)[0]
        on, n_scans, scan_secs, scan_cpu, on_elapsed = _timed_relay(
            profile, monitored=True
        )
        best_off = max(best_off, off)
        best_on = max(best_on, on)
        scans = max(scans, n_scans)
        if on_elapsed:
            duty = max(duty, scan_cpu / on_elapsed)
            wall_duty = max(wall_duty, scan_secs / on_elapsed)
    ab_overhead = max(0.0, (best_off - best_on) / best_off) if best_off else 0.0
    result.metrics["packets_per_sec_monitors_off"] = best_off
    result.metrics["packets_per_sec_monitors_on"] = best_on
    result.metrics["overhead_frac"] = duty
    result.metrics["wall_overhead_frac"] = wall_duty
    result.metrics["ab_overhead_frac"] = ab_overhead
    result.metrics["health_scans"] = float(scans)
    # The smoke profile is too short for stable ratios (a single GC
    # pause swamps it); the quick/full tiers enforce the budgets.
    if profile.name != "smoke":
        if duty >= 0.03:
            raise RuntimeError(
                f"health monitors consumed {duty:.1%} of the monitored "
                "run (scan CPU duty cycle); budget is < 3%"
            )
        if ab_overhead >= 0.25:
            raise RuntimeError(
                f"monitors-on throughput collapsed: {best_on:.0f} vs "
                f"{best_off:.0f} pkts/s ({ab_overhead:.0%} drop) — scan "
                "work is leaking onto the hot path"
            )
    return result


def _timed_collected(
    profile: BenchProfile, collected: bool
) -> "tuple[float, float, float, float, int, int]":
    """One in-process two-worker relay run; returns
    ``(rate, elapsed, poll_seconds, poll_cpu_seconds, polls, spans)``.

    Both arms carry a sampling :class:`~repro.observe.RuntimeObserver`
    (its cost is bounded by the observe guardrail); the ``collected``
    arm additionally runs the cluster telemetry plane — a
    :class:`~repro.observe.collector.DeltaSource` building bounded
    deltas and a :class:`~repro.observe.collector.ClusterCollector`
    polling, absorbing, and stitching them in the background.  The
    delta build runs synchronously inside the collector's fetch, on
    the polling thread, so ``poll_cpu_seconds`` is the plane's entire
    cost; ``poll_seconds`` adds that thread's waits for the GIL.
    """
    from repro.core.distributed import DistributedJob
    from repro.observe import RuntimeObserver
    from repro.observe.collector import ClusterCollector, DeltaSource

    # The previous arm's job is cyclic garbage: freed in here, the
    # gen-2 pass (~70 ms) can land on the thread being measured.
    gc.collect()
    sink = _LatencySink()
    graph = StreamProcessingGraph(
        "bench-collector",
        config=NeptuneConfig(
            buffer_capacity=32 * 1024,
            buffer_max_delay=profile.relay_max_delay,
        ),
    )
    graph.add_source("source", lambda: _RelaySource(profile.relay_packets))
    graph.add_processor("relay", _Relay)
    graph.add_processor("sink", lambda: sink)
    graph.link("source", "relay").link("relay", "sink")

    # Production-plausible observability config: 1-in-1024 trace
    # sampling and the coordinator's default 0.25s poll interval.
    # Span shipping dominates poll cost, so the duty bound below is
    # for *this* pinned sampling rate (~300 spans/s at the ~50k
    # packets/s this relay sustains); correctness suites that trace
    # every packet trade that cost for coverage deliberately.
    observer = RuntimeObserver(sample_every=1024)
    job = DistributedJob(graph, n_workers=2, observer=observer)
    collector: "ClusterCollector | None" = None
    source: "DeltaSource | None" = None
    t0 = time.perf_counter()
    job.start()
    if collected:
        source = DeltaSource(observer, 0, worker=job.workers[0])
        collector = ClusterCollector(interval=0.25)
        collector.attach(0, source.collect)
        collector.start()
    ok = job.await_completion(timeout=300)
    if collector is not None:
        collector.stop()
        collector.poll_once()  # the tail, same as the coordinator's hook
    elapsed = time.perf_counter() - t0
    if not ok:
        raise RuntimeError("collector benchmark did not complete in 300s")
    if sink.count != profile.relay_packets:
        raise RuntimeError(
            f"collector relay lost packets: {sink.count}/{profile.relay_packets}"
        )
    rate = sink.count / elapsed if elapsed else 0.0
    if collector is None or source is None:
        return rate, elapsed, 0.0, 0.0, 0, 0
    return (
        rate,
        elapsed,
        collector.poll_seconds,
        collector.poll_cpu_seconds,
        collector.polls,
        source.spans_shipped,
    )


def scenario_collector(profile: BenchProfile) -> BenchResult:
    """Cluster-collector-on vs -off relay cost (A/B interleaved).

    The same two-verdict scheme as ``health``: the duty cycle (CPU
    seconds of the polling thread inside ``poll_once`` — delta build +
    absorb + stitch + bookkeeping, nothing runs between polls — over
    the collected run's wall time) gates at < 3% on non-smoke tiers
    (``collector_wall_overhead_frac``, the same over wall seconds, is
    reported only), and the best-of-N wall-clock A/B delta backstops
    catastrophic regressions at 25% (e.g. collection work leaking onto
    the data plane's hot path).
    """
    result = BenchResult("collector")
    best_off = 0.0
    best_on = 0.0
    duty = 0.0
    wall_duty = 0.0
    polls = 0
    spans = 0
    for _ in range(max(1, profile.codec_repeats)):
        off = _timed_collected(profile, collected=False)[0]
        on, on_elapsed, poll_secs, poll_cpu, n_polls, n_spans = _timed_collected(
            profile, collected=True
        )
        best_off = max(best_off, off)
        best_on = max(best_on, on)
        if on_elapsed:
            duty = max(duty, poll_cpu / on_elapsed)
            wall_duty = max(wall_duty, poll_secs / on_elapsed)
        polls = max(polls, n_polls)
        spans = max(spans, n_spans)
    ab_overhead = max(0.0, (best_off - best_on) / best_off) if best_off else 0.0
    result.metrics["packets_per_sec_collector_off"] = best_off
    result.metrics["packets_per_sec_collector_on"] = best_on
    result.metrics["collector_overhead_frac"] = duty
    result.metrics["collector_wall_overhead_frac"] = wall_duty
    result.metrics["collector_ab_overhead_frac"] = ab_overhead
    result.metrics["collector_polls"] = float(polls)
    result.metrics["collector_spans_shipped"] = float(spans)
    if profile.name != "smoke":
        if duty >= 0.03:
            raise RuntimeError(
                f"cluster collector consumed {duty:.1%} of the collected "
                "run (poll CPU duty cycle); budget is < 3%"
            )
        if ab_overhead >= 0.25:
            raise RuntimeError(
                f"collector-on throughput collapsed: {best_on:.0f} vs "
                f"{best_off:.0f} pkts/s ({ab_overhead:.0%} drop) — "
                "collection work is leaking onto the data plane"
            )
    return result


def _timed_policy(
    profile: BenchProfile, policed: bool
) -> "tuple[float, float, int, int, int]":
    """One stalled-sink run; returns
    ``(elapsed, plane_seconds, actions, breaches, recoveries)``.

    The pipeline is rigged to need the policy: a tiny capacity cut
    produces frames of a handful of packets, and the sink pays a fixed
    cost per *batch* (:class:`~repro.workloads.BatchOverheadSink`), so
    its inbound channel backs up against the watermark.  The ``policed``
    arm scans a ``buffer_occupancy`` SLO at 10 Hz and feeds every
    breach/recover transition through diagnose → PolicyEngine →
    :func:`~repro.observe.policy.apply_action` against the live
    runtime; the control arm just drains the stall at full price.
    ``plane_seconds`` is the entire observe+decide cost: scan seconds
    plus time inside the diagnose/decide/apply hook.
    """
    from repro.observe import (
        SLO,
        HealthEngine,
        PolicyEngine,
        RuntimeObserver,
        apply_action,
        bridge,
    )
    from repro.observe.doctor import diagnose_observer
    from repro.workloads import BatchOverheadSink

    overhead = 0.004 if profile.name == "smoke" else 0.012
    sink = BatchOverheadSink(overhead=overhead)
    graph = StreamProcessingGraph(
        "bench-policy",
        config=NeptuneConfig(
            buffer_capacity=256,
            buffer_max_delay=0.5,
            inbound_high_watermark=16384,
        ),
    )
    graph.add_source("source", lambda: _RelaySource(profile.policy_packets))
    graph.add_processor("relay", _Relay)
    graph.add_processor("sink", lambda: sink)
    graph.link("source", "relay").link("relay", "sink")

    observer = RuntimeObserver(sample_every=0) if policed else None
    engine: "HealthEngine | None" = None
    policy: "PolicyEngine | None" = None
    plane_seconds = 0.0
    breaches = 0
    recoveries = 0
    t0 = time.perf_counter()
    with NeptuneRuntime(observer=observer) as runtime:
        handle = runtime.submit(graph)
        if observer is not None:
            registry = observer.registry
            slo = SLO(
                "sink-backlog",
                "buffer_occupancy",
                threshold=2048.0,
                operator="sink",
                for_scans=2,
                clear_scans=2,
                warmup_scans=1,
            )
            engine = HealthEngine(
                observer,
                [slo],
                scrape=lambda: bridge.scrape_job(registry, handle),
                interval=0.1,
            )
            policy = PolicyEngine()

            def scan_and_decide() -> None:
                nonlocal breaches, recoveries, plane_seconds
                transitions = engine.scan_once()
                if not transitions:
                    return
                breaches += sum(1 for _, k in transitions if k == "breach")
                recoveries += sum(1 for _, k in transitions if k == "recover")
                t_hook = time.perf_counter()
                report = diagnose_observer(observer)
                for action in policy.observe(
                    engine.scans, transitions, report, observer
                ):
                    if action.kind != "migrate":  # single process: nowhere to go
                        apply_action(runtime, action)
                plane_seconds += time.perf_counter() - t_hook

            # Foreground 10 Hz scan loop (the coordinator's on_scan
            # hook, minus the processes).  Progress is polled off the
            # sink's own counter: ``await_completion`` is a one-shot
            # drain (it tears the job down on timeout), not a poll.
            scan_deadline = time.monotonic() + 600
            while sink.seen < profile.policy_packets:
                if handle.failures:
                    raise RuntimeError(f"policy bench job failed: {handle.failures}")
                if time.monotonic() > scan_deadline:
                    raise RuntimeError(
                        f"policy bench stalled at {sink.seen}/"
                        f"{profile.policy_packets} packets"
                    )
                time.sleep(0.1)
                scan_and_decide()
            if not handle.await_completion(timeout=60):
                raise RuntimeError("policy benchmark did not drain")
            # The backlog is gone; a few post-drain scans let the
            # monitor's clear hysteresis observe the recovery.
            for _ in range(3):
                scan_and_decide()
        else:
            if not handle.await_completion(timeout=600):
                raise RuntimeError("policy benchmark did not complete in 600s")
    elapsed = time.perf_counter() - t0
    if sink.seen != profile.policy_packets:
        raise RuntimeError(
            f"policy relay lost packets: {sink.seen}/{profile.policy_packets}"
        )
    if engine is None or policy is None:
        return elapsed, 0.0, 0, 0, 0
    plane_seconds += engine.scan_seconds
    return elapsed, plane_seconds, len(policy.decisions), breaches, recoveries


def scenario_policy(profile: BenchProfile) -> BenchResult:
    """Stalled-sink heal: breach → retune → drain, policy-on vs -off.

    Three verdicts on non-smoke tiers:

    - the engine must have *acted* (≥1 retune) off a real breach;
    - ``heal_speedup`` (policy-off wall / policy-on wall) must be
      ≥ 1.25 — the retune visibly beats draining the stall at full
      per-batch price, the scenario's whole point;
    - ``plane_duty_frac`` — (scan + diagnose + decide + apply) seconds
      over the healed run's wall time — must stay < 3%, the same duty
      budget as the ``health`` and ``collector`` planes.

    The smoke tier runs the machinery but skips the gates: its run is
    too short for the breach hysteresis to reliably fire at all.
    """
    result = BenchResult("policy")
    t_on, plane_seconds, actions, breaches, recoveries = _timed_policy(
        profile, policed=True
    )
    t_off, _, _, _, _ = _timed_policy(profile, policed=False)
    duty = plane_seconds / t_on if t_on else 0.0
    speedup = t_off / t_on if t_on else 0.0
    result.metrics["drain_sec_policy_off"] = t_off
    result.metrics["drain_sec_policy_on"] = t_on
    result.metrics["heal_speedup"] = speedup
    result.metrics["plane_duty_frac"] = duty
    result.metrics["policy_actions"] = float(actions)
    result.metrics["slo_breaches"] = float(breaches)
    result.metrics["slo_recoveries"] = float(recoveries)
    if profile.name != "smoke":
        if actions < 1 or breaches < 1:
            raise RuntimeError(
                f"policy never closed the loop: {breaches} breach(es), "
                f"{actions} action(s) — the stall must trip the SLO and "
                "the doctor must attribute it"
            )
        if speedup < 1.25:
            raise RuntimeError(
                f"policy heal is not paying for itself: {t_on:.2f}s healed vs "
                f"{t_off:.2f}s stalled ({speedup:.2f}x; floor is 1.25x)"
            )
        if duty >= 0.03:
            raise RuntimeError(
                f"policy plane consumed {duty:.1%} of the healed run "
                "(scan + diagnose + decide duty); budget is < 3%"
            )
    return result


def _cluster_rate(profile: BenchProfile, n_workers: int) -> float:
    """Aggregate relay throughput of one ``n_workers``-process cluster.

    The rate is measured between metric samples (first sample past 10%
    of the total to the completion sample), not launch-to-drain wall
    time, so interpreter spawn cost — which grows with the worker
    count — does not bias the scale-up ratio.
    """
    from repro.cluster import ClusterCoordinator
    from repro.core.graph import descriptor_factory

    total = profile.cluster_packets
    graph = StreamProcessingGraph(
        "bench-cluster",
        config=NeptuneConfig(buffer_capacity=4096, buffer_max_delay=0.005),
    )
    graph.add_source(
        "source",
        descriptor_factory(
            "repro.workloads.operators:CountingSource", total=total, payload_size=32
        ),
    )
    graph.add_processor(
        "service",
        descriptor_factory(
            "repro.workloads.operators:ExclusiveServiceProcessor",
            service_time=profile.cluster_service_time,
        ),
        parallelism=4,
    )
    graph.add_processor(
        "sink", descriptor_factory("repro.workloads.operators:CollectingSink")
    )
    graph.link("source", "service").link("service", "sink")

    coordinator = ClusterCoordinator(graph, n_workers=n_workers)
    samples: list[tuple[float, float]] = []
    try:
        job = coordinator.launch(connect_timeout=120)
        deadline = time.monotonic() + 300
        while True:
            count = float(job.metrics().get("sink", {}).get("packets_in", 0))
            samples.append((time.monotonic(), count))
            if count >= total:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"cluster bench stalled at {count}/{total} packets "
                    f"({n_workers} workers)"
                )
            time.sleep(0.03)
        if not coordinator.await_completion(timeout=120):
            raise RuntimeError(f"cluster bench drain failed ({n_workers} workers)")
        final = coordinator.metrics()["sink"]["packets_in"]
        if final != total:
            raise RuntimeError(f"cluster bench lost packets: {final}/{total}")
    finally:
        coordinator.terminate()
    anchor = next((s for s in samples if s[1] >= total * 0.1), samples[0])
    t_end, c_end = samples[-1]
    if c_end > anchor[1] and t_end > anchor[0]:
        return (c_end - anchor[1]) / (t_end - anchor[0])
    return c_end / max(t_end - samples[0][0], 1e-9)


def scenario_cluster_scaling(profile: BenchProfile) -> BenchResult:
    """Aggregate relay throughput vs worker-process count.

    The service stage holds a per-process exclusive lock while serving
    each packet (:class:`~repro.workloads.operators
    .ExclusiveServiceProcessor`) — a portable model of GIL-bound work,
    so the measured scale-up tracks process-level parallelism rather
    than core count and is stable across 1-core dev containers and
    multi-core CI runners.  ``relay_pps_wN`` rates are sleep-bound, not
    CPU-bound, hence recorded unguarded (calibration normalization
    would be meaningless); the ``scaleup_wN`` ratio is the guarded
    acceptance metric (≥2.5× at 4 workers).
    """
    result = BenchResult("cluster_scaling")
    rates: dict[int, float] = {}
    for n_workers in profile.cluster_worker_counts:
        rates[n_workers] = _cluster_rate(profile, n_workers)
        result.metrics[f"relay_pps_w{n_workers}"] = rates[n_workers]
    if len(rates) >= 2:
        low = min(rates)
        high = max(rates)
        scaleup = rates[high] / max(rates[low], 1e-9)
        result.metrics[f"scaleup_w{high}"] = scaleup
        result.metrics["packets"] = float(profile.cluster_packets)
        if high >= 4 and low == 1 and scaleup < 2.5:
            raise RuntimeError(
                f"cluster scale-up collapsed: {rates[high]:.0f} pkts/s at "
                f"{high} workers vs {rates[low]:.0f} at {low} "
                f"({scaleup:.2f}x; acceptance floor is 2.5x)"
            )
    return result


def run_scenarios(profile: BenchProfile) -> list[BenchResult]:
    """Run every pinned scenario under ``profile`` in a fixed order."""
    results = [
        scenario_codec(profile),
        scenario_buffer(profile),
        scenario_relay(profile),
        scenario_health(profile),
        scenario_collector(profile),
        scenario_policy(profile),
    ]
    if profile.cluster_worker_counts:
        results.append(scenario_cluster_scaling(profile))
    return results
