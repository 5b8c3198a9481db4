"""The NEPTUNE runtime: deploys stream-processing graphs onto Granules.

This is where the paper's §III-B machinery composes:

- every operator *instance* becomes a Granules computational task;
- processor instances get a watermark-gated inbound channel
  (backpressure, §III-B4) drained in batches per scheduled execution
  (batched scheduling, §III-B2);
- every (sender instance → destination instance) link leg gets an
  application-level :class:`StreamBuffer` (capacity + timer flush,
  §III-B1) feeding a transport, with an optional per-link selective
  compression policy (§III-B5);
- serde uses per-link reusable codecs and pooled packets (object
  reuse, §III-B3), and each link's send path is *compiled* when the
  graph is wired (:meth:`_InstanceRuntime.bind_links`): everything a
  packet's journey does not depend on is resolved once, so an emit is
  routing plus one encode-and-append ``StreamBuffer.append_packet`` per
  destination;
- threads form two tiers: the Granules worker pool executes operators,
  and the IO tier (flush-timer thread plus, in distributed mode,
  socket reader threads) moves bytes.

Correctness: per-link-leg FIFO order with sequence verification at the
receiver, checksummed frames on the wire, and blocking (never dropping)
under backpressure — packets are processed in order and exactly once.

The worker pool defaults to ``max(cores, hosted instances)`` threads: an
emit blocked on a gated downstream channel parks its worker, and sizing
the pool to the instance count guarantees the consumer that must drain
that channel can always get a worker (pressure chains are acyclic, so
the most-downstream stage always progresses — no deadlock).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator

from repro.compression import CompressionPolicy
from repro.core.buffering import FlushTimerService, StreamBuffer
from repro.core.config import NeptuneConfig
from repro.core.graph import LinkSpec, OperatorSpec, StreamProcessingGraph
from repro.core.job import JobHandle, JobState
from repro.core.metrics import MetricsRegistry
from repro.core.operators import StreamProcessor
from repro.core.packet import PacketSchema, StreamPacket
from repro.core.serde import PacketCodec
from repro.granules.dataset import Dataset
from repro.granules.resource import Resource
from repro.granules.scheduler import DataDrivenStrategy, SchedulingStrategy
from repro.granules.task import ComputationalTask, TaskState
from repro.net.flowcontrol import ChannelClosed, WatermarkChannel
from repro.net.framing import Frame, FrameHeader
from repro.observe import profiler as _profiler
from repro.observe.tracing import (
    LegTrace,
    TraceNote,
    close_hop,
    decode_notes,
    encode_notes,
)
from repro.util.errors import BackpressureTimeout, JobStateError, NeptuneError


def _waited(waits: list[float]) -> float | None:
    """Total of the waits a flush sink's put/send reported through
    ``on_wait=waits.append``, emptying the list; None when there were
    none (the answer a sink hands its :class:`StreamBuffer`)."""
    if not waits:
        return None
    total = sum(waits)
    waits.clear()
    return total


class _ChannelDataset(Dataset):
    """Adapts a WatermarkChannel to Granules' dataset interface so
    data-driven scheduling fires when a frame lands."""

    def __init__(self, name: str, channel: WatermarkChannel) -> None:
        super().__init__(name)
        self.channel = channel
        channel.on_data_available(self._notify)

    def has_data(self) -> bool:
        """Whether a read would currently yield data."""
        return len(self.channel) > 0

    def close(self) -> None:
        """Release underlying resources. Idempotent."""
        super().close()
        self.channel.close()


class _SourceStrategy(SchedulingStrategy):
    """Keeps a source scheduled until it declares itself finished."""

    def __init__(self, instance: "_InstanceRuntime") -> None:
        self._instance = instance

    def should_run(self, task: ComputationalTask, now: float) -> bool:
        """Whether the task is due for execution now."""
        return not self._instance.finished and not self._instance.paused

    def next_deadline(self, task: ComputationalTask, now: float) -> float | None:
        # Re-poll via the timer loop so a source is never forgotten
        # (e.g. after a strategy swap, unpause, or failure recovery).
        """Earliest future time the decision could flip to True."""
        return None if self._instance.finished else now


class _OutLinkRuntime:
    """Sender-side state for one outgoing link of one operator instance."""

    __slots__ = (
        "link",
        "scheme",
        "codec",
        "buffers",
        "dest_channels",
        "wire_ids",
        "policy",
    )

    def __init__(self, link: LinkSpec) -> None:
        self.link = link
        self.scheme = link.resolved_partitioning()
        self.codec = PacketCodec(link.schema)
        self.buffers: list[StreamBuffer] = []
        self.dest_channels: list[WatermarkChannel] = []
        self.wire_ids: list[int] = []
        self.policy: CompressionPolicy | None = None


class _ActiveTrace:
    """The traced inbound packet currently being processed, if any.

    Lives on the instance (operators execute serialized, single
    writer).  ``consumed`` flips when a derived emit continues the
    trace to the next hop — the parent hop's ``execute`` span then
    closes at that emit, keeping the stage chain contiguous; only the
    first derived emit inherits the trace so stage sums keep tiling the
    end-to-end latency.
    """

    __slots__ = ("note", "drain_ts", "deser_ts", "consumed")

    def __init__(self, note: TraceNote, drain_ts: float, deser_ts: float) -> None:
        self.note = note
        self.drain_ts = drain_ts
        self.deser_ts = deser_ts
        self.consumed = False


#: Free packets one instance keeps per outgoing schema.
_FREE_LIST_LIMIT = 256


class _PacketFreeList(list[StreamPacket]):
    """One instance's free packets of one schema, with reuse counters.

    A plain list, and deliberately lock-free: an operator instance's
    executions are serialized (the Granules per-task guarantee), and
    only the owning instance's ``new_packet``/``emit`` touch it.  A
    leased packet remembers this list in ``_home``; emit hands it back.
    """

    __slots__ = ("schema", "created", "reused", "overflow")

    def __init__(self, schema: PacketSchema) -> None:
        super().__init__()
        self.schema = schema
        self.created = 0
        self.reused = 0
        self.overflow = 0  # releases dropped because the list was full


class _InstanceRuntime(ComputationalTask):
    """One operator instance as a Granules computational task.

    It is also the :class:`~repro.core.operators.EmitContext` handed to
    the operator: ``ctx.emit`` and ``ctx.new_packet`` are this
    instance's methods, with no forwarding object in between.
    """

    def __init__(
        self,
        job: "_JobRuntime",
        spec: OperatorSpec,
        index: int,
    ) -> None:
        super().__init__(f"{job.graph.name}/{spec.name}[{index}]")
        self.job = job
        self.spec = spec
        self.index = index
        self.op_label = f"{spec.name}[{index}]"
        self._active_trace: _ActiveTrace | None = None
        # Cached per-instance: sampling is fixed for the observer's
        # lifetime, so emit pays one attribute read + branch, not a
        # property call, when tracing is off.
        self._observer = job.observer
        self._tracing = (
            self._observer is not None and self._observer.tracer.sample_every > 0
        )
        self.operator = spec.factory()
        self.operator.name = spec.name
        self.metrics = job.metrics.for_operator(spec.name, index)
        self.metrics.refresh = self._refresh_output_metrics
        self.finished = not spec.is_source  # processors "finish" via drain
        self.paused = False  # quiesced-checkpoint gate (sources only)
        self.out_links: dict[str, list[_OutLinkRuntime]] = {}
        self.channel: WatermarkChannel | None = None
        self._expected_seq: dict[int, int] = {}
        # Resolved by bind_links() once the out-links are wired: what
        # ``stream=None`` means, and the free-list behind each stream.
        self._default_links: list[_OutLinkRuntime] | None = None
        self._default_free: _PacketFreeList | None = None
        self._free_lists: dict[PacketSchema, _PacketFreeList] = {}
        if not spec.is_source:
            cfg = job.graph.config
            self.channel = WatermarkChannel(
                high_watermark=cfg.inbound_high_watermark,
                low_watermark=cfg.low_watermark(),
            )
            self.attach_dataset(_ChannelDataset("inbound", self.channel))

    def bind_links(self) -> None:
        """Compile the send path; call once ``out_links`` is complete.

        Resolves, per instance instead of per packet, which links the
        default stream means and which packet free-list serves it.
        """
        if len(self.out_links) == 1:
            self._default_links = next(iter(self.out_links.values()))
            self._default_free = self._free_list_for(self._default_links)

    # -- EmitContext -------------------------------------------------------
    @property
    def instance_index(self) -> int:
        """This instance's index in [0, parallelism)."""
        return self.index

    @property
    def parallelism(self) -> int:
        """Total instances of this operator."""
        return self.spec.parallelism

    # -- lifecycle ---------------------------------------------------------
    def initialize(self) -> None:
        """Prepare for use (framework-managed lifecycle)."""
        self.operator.setup(self)

    def terminate(self) -> None:
        """Per-instance cleanup hook."""
        self.operator.teardown()

    # -- execution -----------------------------------------------------------
    def execute(self, context: Any = None) -> None:
        """One scheduled execution (ComputationalTask contract)."""
        # Thread-ownership window for the sampling profiler: a dormant
        # profiler costs exactly this one flag test per execution.
        if not _profiler._ACTIVE:
            if self.spec.is_source:
                if not self.finished:
                    self.operator.generate(self)  # type: ignore[union-attr]
                return
            self._process_available()
            return
        _profiler.set_thread_owner(self.op_label)
        try:
            if self.spec.is_source:
                if not self.finished:
                    self.operator.generate(self)  # type: ignore[union-attr]
                return
            self._process_available()
        finally:
            _profiler.clear_thread_owner()

    def _process_available(self) -> None:
        assert self.channel is not None
        # One drain = one channel lock acquisition for the whole
        # inbound batch (paper §III-B2: batched scheduling amortizes
        # per-packet synchronization into per-batch synchronization).
        frames = self.channel.drain()
        if not frames:
            # Time/count-triggered execution with no pending data.
            if self.spec.scheduling is not None:
                self.operator.on_schedule(self)  # type: ignore[union-attr]
                self.metrics.executions += 1
            return
        op: StreamProcessor = self.operator  # type: ignore[assignment]
        obs = self._observer
        ctx = self  # the operator's EmitContext
        total_packets = 0
        total_bytes = 0
        latency = self.metrics.latency
        for frame, put_at, in_link in frames:
            self._verify_sequence(frame)
            now = time.monotonic()
            body = frame.body
            total_bytes += len(body)
            if in_link.compression_used:
                body = CompressionPolicy.decode(body)
            codec = in_link.codec
            latency.record(now - put_at)
            note_map: dict[int, TraceNote] | None = None
            drain_ts = now
            if obs is not None and frame.trace:
                try:
                    note_map = {n.batch_index: n for n in decode_notes(frame.trace)}
                except ValueError:
                    note_map = None  # torn trace block: drop diagnostics, keep data
            op.on_batch_start(frame.count, ctx)
            if note_map is None:
                # Hot path: no per-packet branches or counters — the
                # eager count validation in iter_decode guarantees a
                # completed loop processed exactly frame.count packets.
                for packet in codec.iter_decode(body, count=frame.count, reuse=True):
                    op.process(packet, ctx)
                n = frame.count
            else:
                n = 0
                for packet in codec.iter_decode(body, count=frame.count, reuse=True):
                    note = note_map.get(n)
                    if note is not None:
                        self._active_trace = _ActiveTrace(
                            note, drain_ts, time.monotonic()
                        )
                    op.process(packet, ctx)
                    if note is not None:
                        active = self._active_trace
                        self._active_trace = None
                        if active is not None and not active.consumed:
                            # Terminal hop (no derived emit): execute ends here.
                            assert obs is not None
                            obs.collector.add(
                                close_hop(
                                    note,
                                    active.drain_ts,
                                    active.deser_ts,
                                    time.monotonic(),
                                    self.op_label,
                                )
                            )
                    n += 1
            op.on_batch_end(ctx)
            total_packets += n
            # Zero-copy flush protocol: an in-process sender parked its
            # pooled bytearray in the frame; hand it back now that the
            # batch is fully decoded (no-op for wire/compressed bytes).
            recycle = in_link.recycle
            if recycle is not None:
                recycle(frame.body)
        # One telemetry update per scheduled execution, not per packet.
        metrics = self.metrics
        metrics.batches_in += len(frames)
        metrics.bytes_in += total_bytes
        metrics.packets_in += total_packets
        metrics.executions += 1
        if obs is not None:
            obs.event(
                "runtime",
                "batch_executed",
                operator=self.op_label,
                frames=len(frames),
                packets=total_packets,
            )

    def _verify_sequence(self, frame: Frame) -> None:
        expected = self._expected_seq.get(frame.link_id, 0)
        if frame.seq != expected:
            raise NeptuneError(
                f"{self.task_id}: wire link {frame.link_id} frame seq {frame.seq}, "
                f"expected {expected} — ordering violation"
            )
        self._expected_seq[frame.link_id] = frame.seq + 1

    # -- emission ------------------------------------------------------------
    def emit(self, packet: StreamPacket, stream: str | None = None) -> None:
        """Send a packet downstream (blocking under backpressure).

        One sender path for traced, untraced and fan-out packets: route,
        then one encode-and-append per destination.  Output counters
        and blocked time are the buffers' (per batch), read back by
        ``_refresh_output_metrics``.
        """
        links = self._default_links if stream is None else None
        if links is None:
            links = self._links_for(stream)
        note = self._mint_note(self._observer) if self._tracing else None
        for out in links:
            buffers = out.buffers
            codec = out.codec
            for dest in out.scheme.route(packet, len(buffers)):
                # On fan-out only the first leg carries the trace: a
                # packet's journey stays a single stage chain.
                buffers[dest].append_packet(codec, packet, note)
                note = None
        home = packet._home
        if home is not None:
            # Lease over: back to the free-list it came from, once.
            packet._home = None
            packet._values[:] = home.schema._blank
            if len(home) < _FREE_LIST_LIMIT:
                home.append(packet)
            else:
                home.overflow += 1

    def _mint_note(self, obs: Any) -> TraceNote | None:
        """Trace context for this emit: fresh at sources (sampled),
        inherited at hop+1 when processing a traced packet."""
        now = time.monotonic()
        active = self._active_trace
        if active is not None:
            if active.consumed:
                return None  # only the first derived emit continues the trace
            active.consumed = True
            # The parent hop's execute stage ends exactly where this
            # packet's serialize stage starts — contiguous by design.
            obs.collector.add(
                close_hop(
                    active.note, active.drain_ts, active.deser_ts, now, self.op_label
                )
            )
            return TraceNote(active.note.trace_id, active.note.hop + 1, now)
        if self.spec.is_source:
            ctx = obs.tracer.maybe_sample(self.spec.name)
            if ctx is not None:
                return TraceNote(ctx.trace_id, 0, now)
        return None

    def _links_for(self, stream: str | None) -> list[_OutLinkRuntime]:
        if stream is None:
            if len(self.out_links) == 1:
                return next(iter(self.out_links.values()))
            if not self.out_links:
                raise NeptuneError(
                    f"{self.task_id}: emit with no outgoing links"
                )
            raise NeptuneError(
                f"{self.task_id}: multiple outgoing streams "
                f"{sorted(self.out_links)}; name one explicitly"
            )
        try:
            return self.out_links[stream]
        except KeyError:
            raise NeptuneError(
                f"{self.task_id}: no outgoing stream {stream!r}; "
                f"declared: {sorted(self.out_links)}"
            ) from None

    def _free_list_for(self, links: list[_OutLinkRuntime]) -> _PacketFreeList:
        schema = links[0].link.schema
        free = self._free_lists.get(schema)
        if free is None:
            free = self._free_lists[schema] = _PacketFreeList(schema)
        return free

    def new_packet(self, stream: str | None = None) -> StreamPacket:
        """A pooled packet bound to the outgoing stream's schema."""
        free = self._default_free if stream is None else None
        if free is None:
            free = self._free_list_for(self._links_for(stream))
        if free:
            pkt = free.pop()
            free.reused += 1
        else:
            pkt = StreamPacket(free.schema)
            free.created += 1
        pkt._home = free
        return pkt

    def _out_buffers(self) -> Iterator[StreamBuffer]:
        """Every outbound stream buffer of this instance."""
        for links in self.out_links.values():
            for out in links:
                yield from out.buffers

    def _refresh_output_metrics(self) -> None:
        """Derive the output counters from the stream buffers (any
        thread; the emit path itself counts nothing per packet)."""
        packets = size = 0
        blocked = 0.0
        for buf in self._out_buffers():
            n, nbytes = buf.appended()
            packets += n
            size += nbytes
            blocked += buf.blocked_seconds
        self.metrics.packets_out = packets
        self.metrics.bytes_out = size
        self.metrics.emit_block_seconds = blocked

    def finish(self) -> None:
        """Declare this source exhausted (stops its scheduling)."""
        self.finished = True

    def flush_all(self) -> None:
        """Force-flush every outbound buffer."""
        for buf in self._out_buffers():
            buf.flush()

    @property
    def pending_out_bytes(self) -> int:
        """Unflushed outbound bytes across all link legs."""
        return sum(buf.pending_bytes for buf in self._out_buffers())


class _InLinkInfo:
    """Receiver-side per-link decode state (codec reuse, §III-B3).

    ``recycle`` closes the zero-copy loop for in-process legs: it is the
    sending :class:`StreamBuffer`'s ``recycle`` bound method (wired after
    buffer construction in ``submit``), called by the receiver once a
    frame's stolen bytearray body is fully decoded.
    """

    __slots__ = ("codec", "compression_used", "recycle")

    def __init__(self, codec: PacketCodec, compression_used: bool) -> None:
        self.codec = codec
        self.compression_used = compression_used
        self.recycle: Any = None


class _JobRuntime:
    """All runtime state for one submitted graph."""

    def __init__(self, graph: StreamProcessingGraph, observer: Any = None) -> None:
        self.graph = graph
        self.observer = observer  # RuntimeObserver | None (duck-typed)
        self.metrics = MetricsRegistry()
        self.instances: dict[str, list[_InstanceRuntime]] = {}
        self.state = JobState.CREATED
        self.failures: dict[str, BaseException] = {}
        self.buffers: list[StreamBuffer] = []

    def all_instances(self) -> list[_InstanceRuntime]:
        """Every operator instance of this job, flattened."""
        return [i for group in self.instances.values() for i in group]


class NeptuneRuntime:
    """Single-process NEPTUNE runtime (one Granules resource).

    Hosts any number of concurrent stream-processing jobs.  Use as a
    context manager::

        with NeptuneRuntime() as rt:
            handle = rt.submit(graph)
            ...
            handle.stop()

    For multi-process deployment see :mod:`repro.core.distributed`.
    """

    def __init__(
        self,
        workers: int | None = None,
        name: str = "neptune",
        observer: Any = None,
    ) -> None:
        self.name = name
        self.observer = observer  # repro.observe.RuntimeObserver | None
        self._explicit_workers = workers
        self._resource: Resource | None = None
        self._flush_service = FlushTimerService()
        self._jobs: list[_JobRuntime] = []
        self._lock = threading.Lock()
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start background threads/services. Idempotent."""
        with self._lock:
            if self._started:
                return
            self._started = True
        self._flush_service.start()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Drain every job and stop all runtime threads."""
        with self._lock:
            jobs = list(self._jobs)
        for job in jobs:
            if job.state is JobState.RUNNING:
                self._await_job(job, timeout, force_finish=True)
        self._flush_service.stop()
        if self._resource is not None:
            self._resource.stop(timeout)
            self._resource = None
        with self._lock:
            self._started = False

    def __enter__(self) -> "NeptuneRuntime":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- submission -----------------------------------------------------------
    def submit(self, graph: StreamProcessingGraph, restore_from=None) -> JobHandle:
        """Validate, wire, and launch ``graph``; returns its handle.

        ``restore_from`` accepts a
        :class:`~repro.core.checkpoint.Checkpoint`: each instance whose
        operator implements ``restore_state`` is rehydrated before its
        first execution (fault-recovery path, §VI future work).
        """
        if not self._started:
            self.start()
        graph.validate()
        job = _JobRuntime(graph, observer=self.observer)

        # 1. Instantiate operator instances (restoring state if asked).
        for spec in graph.operators.values():
            job.instances[spec.name] = [
                _InstanceRuntime(job, spec, i) for i in range(spec.parallelism)
            ]
        if restore_from is not None:
            for inst in job.all_instances():
                state = restore_from.state_for(inst.spec.name, inst.index)
                restore = getattr(inst.operator, "restore_state", None)
                if state is not None and restore is not None:
                    restore(state)

        # 2. Wire links: one buffer + transport per (sender instance,
        #    link, destination instance).
        cfg = graph.config
        wire_id = 0
        for link in graph.links:
            senders = job.instances[link.from_op]
            receivers = job.instances[link.to_op]
            compression_on = self._compression_enabled(cfg, link)
            for sender in senders:
                out = _OutLinkRuntime(link)
                if compression_on:
                    out.policy = CompressionPolicy(
                        enabled=True,
                        entropy_threshold=cfg.compression_entropy_threshold,
                        min_size=cfg.compression_min_size,
                    )
                for receiver in receivers:
                    channel = receiver.channel
                    assert channel is not None
                    this_wire = wire_id
                    wire_id += 1
                    in_info = _InLinkInfo(PacketCodec(link.schema), compression_on)
                    leg = LegTrace() if self.observer is not None else None
                    sink = self._make_sink(
                        this_wire, channel, out.policy, in_info, cfg.emit_timeout, leg
                    )
                    buf = StreamBuffer(
                        capacity=cfg.buffer_capacity,
                        sink=sink,
                        max_delay=cfg.buffer_max_delay,
                        name=f"{link.from_op}[{sender.index}]->"
                        f"{link.to_op}[{receiver.index}]/{link.stream}",
                        trace_leg=leg,
                        observer=self.observer,
                    )
                    # Close the zero-copy loop: the receiver (or the
                    # compressing sink) returns flush bytearrays here.
                    in_info.recycle = buf.recycle
                    out.buffers.append(buf)
                    out.dest_channels.append(channel)
                    out.wire_ids.append(this_wire)
                    job.buffers.append(buf)
                    self._flush_service.register(buf)
                sender.out_links.setdefault(link.stream, []).append(out)
        for inst in job.all_instances():
            inst.bind_links()

        # Backpressure visibility: watermark gate transitions land on
        # the observer's event timeline, carrying the upstream operators
        # the closed gate throttles so `repro doctor` can reconstruct
        # the cascade (which stalled buffer throttled which senders).
        if self.observer is not None:
            upstream: dict[str, list[str]] = {}
            for link in graph.links:
                ops = upstream.setdefault(link.to_op, [])
                if link.from_op not in ops:
                    ops.append(link.from_op)
            for inst in job.all_instances():
                if inst.channel is not None:
                    inst.channel.on_gate_change(
                        self._make_gate_callback(
                            self.observer,
                            inst.op_label,
                            inst.channel,
                            tuple(upstream.get(inst.spec.name, ())),
                        )
                    )

        # 3. Launch on the (lazily sized) Granules resource.
        self._ensure_resource(job)
        resource = self._resource
        assert resource is not None
        for inst in job.all_instances():
            strategy: SchedulingStrategy
            if inst.spec.is_source:
                strategy = _SourceStrategy(inst)
            elif inst.spec.scheduling is not None:
                strategy = inst.spec.scheduling()
            else:
                strategy = DataDrivenStrategy()
            resource.launch(inst, strategy)
        job.state = JobState.RUNNING
        with self._lock:
            self._jobs.append(job)
        return JobHandle(self, job)

    @staticmethod
    def _compression_enabled(cfg: NeptuneConfig, link: LinkSpec) -> bool:
        if link.compression is None:
            return cfg.compression_enabled
        if isinstance(link.compression, bool):
            return link.compression
        return True  # dict spec → enabled with overrides (future use)

    @staticmethod
    def _make_gate_callback(
        obs: Any,
        operator: str,
        channel: WatermarkChannel | None = None,
        throttles: tuple[str, ...] = (),
    ):
        """Timeline hook for one inbound channel's watermark gate.

        ``gate_closed`` names the operator whose buffer filled and the
        upstream operators its gate throttles; ``gate_opened`` adds the
        closed episode's duration.  Invoked by the channel *outside*
        its lock (see ``WatermarkChannel._set_gate``).
        """

        def on_gate(gated: bool) -> None:
            attrs: dict[str, object] = {"operator": operator}
            if throttles:
                attrs["throttles"] = list(throttles)
            if channel is not None:
                attrs["buffered_bytes"] = channel.buffered_bytes
                if not gated:
                    attrs["gated_seconds"] = channel.last_gate_seconds
            obs.event(
                "flowcontrol",
                "gate_closed" if gated else "gate_opened",
                **attrs,
            )

        return on_gate

    @staticmethod
    def _make_sink(wire_id, channel, policy, in_info, emit_timeout, leg=None):
        """Build the buffer-flush sink for one link leg.

        The flushed body is (optionally) compressed, framed with a
        per-leg sequence number (receiver-verified ordering), and put
        into the destination channel together with the metadata the
        receiver needs: the put timestamp (latency) and the decode
        info.  The channel item is ``(frame, put_time, in_link_info)``.
        The put blocks under backpressure; with a configured
        ``emit_timeout`` a saturated downstream eventually surfaces
        :class:`BackpressureTimeout` instead of waiting forever.  The
        seconds a put waited are handed back to the buffer (its
        ``blocked_seconds``); compressing and framing are not waits.

        Zero-copy protocol: the buffer hands this sink its pooled
        accumulation bytearray.  Uncompressed, the bytearray itself is
        parked in the frame and the *receiver* recycles it after
        decoding (``_InLinkInfo.recycle``).  Compressed, the frame holds
        fresh policy-encoded bytes, so the sink recycles the original
        immediately.
        """
        seq_counter = [0]
        waits: list[float] = []

        def sink(body: bytes | bytearray | memoryview, count: int) -> float | None:
            """Deliver one flushed batch into the destination channel;
            returns the seconds the put waited for its gate, if any."""
            raw = None
            if policy is not None:
                raw = body
                body = policy.encode(body)
            trace = b""
            if leg is not None and leg.pending:
                # The buffer deposited stamped notes for this batch
                # under its flush lock, which we also run under.
                notes = leg.claim()
                send_ts = time.monotonic()
                for note in notes:
                    note.send_ts = send_ts
                trace = encode_notes(notes)
            seq = seq_counter[0]
            seq_counter[0] = seq + 1
            frame = Frame(FrameHeader(wire_id, seq, count, len(body), 0), body, trace)
            try:
                ok = channel.put(
                    len(body),
                    (frame, time.monotonic(), in_info),
                    timeout=emit_timeout,
                    on_wait=waits.append,
                )
            except ChannelClosed:
                raise NeptuneError(
                    f"wire link {wire_id}: destination channel closed during send"
                ) from None
            if not ok:
                raise BackpressureTimeout(
                    f"wire link {wire_id}: downstream gated longer than "
                    f"emit_timeout={emit_timeout}s"
                )
            if raw is not None and in_info.recycle is not None:
                # The frame carries the compressed copy; the original
                # flush bytearray is done — back to the buffer pool.
                in_info.recycle(raw)
            return _waited(waits)

        return sink

    def _ensure_resource(self, job: _JobRuntime) -> None:
        """(Re)size the worker pool to cover all hosted instances."""
        hosted = sum(len(g) for j in self._jobs for g in j.instances.values())
        hosted += len(job.all_instances())
        cfg = job.graph.config
        if self._explicit_workers is not None:
            workers = max(self._explicit_workers, hosted)
        else:
            workers = cfg.effective_workers(hosted)
        if self._resource is None:
            self._resource = Resource(self.name, workers=workers)
            self._resource.start()
        elif self._resource.workers < workers:
            self._grow_resource(workers)

    def _grow_resource(self, workers: int) -> None:
        """Add worker threads to the live pool (submissions while running)."""
        res = self._resource
        assert res is not None
        res.resize(workers)

    # -- live reconfiguration ----------------------------------------------
    def reconfigure(self, changes: dict) -> dict:
        """Apply a live reconfiguration (the policy engine's act path).

        ``changes`` is a JSON-able dict with any of:

        - ``retune``: ``{"operator": name, "max_delay": s, "capacity":
          bytes, "where": "into"|"from"}`` — retune every
          :class:`StreamBuffer` on the legs into (default) or out of
          the named operator, across all hosted jobs.  A shrinking
          deadline pokes the flush-timer service automatically.
        - ``scale``: ``{"workers": n}`` or ``{"workers_delta": d}`` —
          resize the Granules worker-thread pool to ``n`` (or by ``d``
          relative to the current size, floored at 1 thread; up or
          down, running tasks finish first).

        Returns a JSON-able report of what was actually applied.
        """
        from repro.core.buffering import retune_matching

        report: dict = {"applied": []}
        retune = changes.get("retune")
        if retune:
            with self._lock:
                jobs = list(self._jobs)
            buffers = [buf for job in jobs for buf in job.buffers]
            md = retune.get("max_delay")
            cap = retune.get("capacity")
            applied = retune_matching(
                buffers,
                str(retune.get("operator", "")),
                where=str(retune.get("where", "into")),
                max_delay=None if md is None else float(md),
                capacity=None if cap is None else int(cap),
            )
            for entry in applied:
                report["applied"].append({"kind": "retune", **entry})
        scale = changes.get("scale")
        if scale and self._resource is not None:
            old = self._resource.workers
            delta = scale.get("workers_delta")
            target = old + int(delta) if delta is not None else int(scale.get("workers", old))
            new = self._resource.resize(max(1, target))
            report["applied"].append({"kind": "scale", "from": old, "to": new})
        return report

    # -- link failures ------------------------------------------------------
    def notify_link_failure(self, exc: BaseException, link: str = "link") -> None:
        """Record a terminal transport failure against every running job.

        Wire this as a :class:`~repro.net.transport.TcpTransport`
        ``on_link_failure`` callback (or a
        :meth:`DistributedWorker.on_link_failure` subscriber): an
        exhausted reconnect budget then surfaces through
        ``JobHandle.failures`` exactly like an operator crash, which is
        what checkpoint-based supervisors such as
        :class:`~repro.chaos.recovery.RecoveryCoordinator` key on.
        """
        with self._lock:
            jobs = list(self._jobs)
        for job in jobs:
            if job.state is JobState.RUNNING:
                job.failures.setdefault(link, exc)

    # -- checkpointing -----------------------------------------------------
    def _checkpoint_job(self, job: _JobRuntime, quiesce: bool, timeout: float):
        """Snapshot operator state (see repro.core.checkpoint).

        With ``quiesce=True`` (the consistent mode) sources are paused
        and the pipeline drained before the snapshot, so the cut
        contains no in-flight packets: restored state + source replay
        positions cover the stream exactly once.  ``quiesce=False``
        snapshots live (cheap, per-instance-consistent but fuzzy
        across instances — fine for monitoring).
        """
        from repro.core.checkpoint import take_checkpoint

        if not quiesce or job.state is not JobState.RUNNING:
            return take_checkpoint(job)
        sources = [i for i in job.all_instances() if i.spec.is_source]
        for inst in sources:
            inst.paused = True
        try:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                for inst in job.all_instances():
                    inst.flush_all()
                if self._job_quiet_except_sources(job):
                    break
                time.sleep(0.002)
            else:
                raise JobStateError(
                    f"checkpoint quiesce did not complete within {timeout}s"
                )
            return take_checkpoint(job)
        finally:
            for inst in sources:
                inst.paused = False

    def _job_quiet_except_sources(self, job: _JobRuntime) -> bool:
        for inst in job.all_instances():
            if inst.spec.is_source:
                if inst.state is TaskState.RUNNING:
                    return False
                if inst.pending_out_bytes > 0:
                    return False
                continue
            if inst.state is TaskState.RUNNING:
                return False
            if inst.channel is not None and len(inst.channel) > 0:
                return False
            if inst.pending_out_bytes > 0:
                return False
        return True

    # -- drain / stop -------------------------------------------------------
    def _await_job(self, job: _JobRuntime, timeout: float, force_finish: bool) -> bool:
        if job.state in (JobState.STOPPED, JobState.FAILED):
            return True
        if job.state is JobState.CREATED:
            raise JobStateError("job was never started")
        job.state = JobState.DRAINING
        if force_finish:
            for inst in job.all_instances():
                inst.finished = True
        # Drain overrides custom scheduling (periodic/count-based):
        # a count threshold must not strand the final sub-threshold
        # frames in a channel forever.
        res = self._resource
        if res is not None:
            for inst in job.all_instances():
                if not inst.spec.is_source and inst.spec.scheduling is not None:
                    try:
                        res.set_strategy(inst.task_id, DataDrivenStrategy())
                    except KeyError:
                        pass  # already terminated
        deadline = time.monotonic() + timeout
        quiesced = False
        while time.monotonic() < deadline:
            self._collect_failures(job)
            if job.failures:
                break
            if not all(inst.finished for inst in job.all_instances() if inst.spec.is_source):
                time.sleep(0.005)
                continue
            for inst in job.all_instances():
                inst.flush_all()
            if self._job_quiet(job):
                # Double-check after a settle delay: a worker may have
                # been between drain and process.
                time.sleep(0.01)
                for inst in job.all_instances():
                    inst.flush_all()
                if self._job_quiet(job):
                    quiesced = True
                    break
            time.sleep(0.002)
        self._teardown_job(job)
        self._collect_failures(job)
        job.state = JobState.FAILED if job.failures else JobState.STOPPED
        return quiesced

    def _job_quiet(self, job: _JobRuntime) -> bool:
        for inst in job.all_instances():
            if inst.state is TaskState.RUNNING:
                return False
            if inst.channel is not None and len(inst.channel) > 0:
                return False
            if inst.pending_out_bytes > 0:
                return False
        return True

    def _collect_failures(self, job: _JobRuntime) -> None:
        res = self._resource
        if res is None:
            return
        for inst in job.all_instances():
            if inst.failure is not None:
                key = f"{inst.spec.name}[{inst.index}]"
                job.failures.setdefault(key, inst.failure)

    def _teardown_job(self, job: _JobRuntime) -> None:
        res = self._resource
        for inst in job.all_instances():
            if res is not None:
                res.terminate_task(inst.task_id)
        for buf in job.buffers:
            self._flush_service.unregister(buf)
        with self._lock:
            if job in self._jobs:
                self._jobs.remove(job)
