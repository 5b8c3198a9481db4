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
  reuse, §III-B3), and each instance's send path is compiled when the
  graph is wired (:meth:`_InstanceRuntime.bind_links`): ``ctx.emit``
  and ``ctx.new_packet`` are functions generated per outgoing stream
  for the legs it has (:func:`_compile_sender`), so an emit is one
  append per destination - routing only where there is a choice - and
  the packet's return to its free list;
- threads form two tiers: the Granules worker pool executes operators,
  and the IO tier (flush-timer thread plus, in distributed mode,
  socket reader threads) moves bytes.

There is one engine.  :func:`_wire_partition` builds one resource's
share of a graph and is the only place a link is wired; a leg whose
receiver lives on the same resource puts frames into its channel
(:func:`_local_leg`), any other leg sends them over a transport
(:func:`_remote_leg`) - and a leg between two single-instance operators
on one resource, where a hop buys no parallelism, is no hop at all
(:class:`_ChainedLeg`: the receiver runs on the sender's thread).
:class:`NeptuneRuntime` is the deployment in which one resource hosts
every instance, so no leg is remote;
:class:`~repro.core.distributed.DistributedWorker` hosts what its plan
assigns it.  Launch, live reconfiguration and the lifecycle are shared
the same way: :class:`_JobRuntime` is one resource's *part* of a job,
and :func:`repro.core.job.drain` takes one part or many to the end.

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
from typing import Any, Callable

from repro.compression import CompressionPolicy
from repro.core.buffering import (
    FlushTimerService,
    StreamBuffer,
    leg_matches,
    retune_matching,
)
from repro.core.config import NeptuneConfig
from repro.core.fieldtypes import compile_as_decoded
from repro.core.graph import (
    LinkSpec,
    OperatorSpec,
    StreamProcessingGraph,
    chain_barrier,
)
from repro.core.job import JobHandle, JobState, drain
from repro.core.metrics import MetricsRegistry
from repro.core.operators import StreamProcessor
from repro.core.packet import PacketSchema, StreamPacket
from repro.core.partitioning import (
    BroadcastPartitioning,
    FieldsPartitioning,
    RoundRobinPartitioning,
    ShufflePartitioning,
)
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
from repro.util.errors import (
    BackpressureTimeout,
    GraphValidationError,
    JobStateError,
    NeptuneError,
    SerializationError,
)


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
        "policy",
    )

    def __init__(self, link: LinkSpec) -> None:
        self.link = link
        self.scheme = link.resolved_partitioning()
        self.codec = PacketCodec(link.schema)
        #: One leg per destination instance, indexed by what the
        #: partitioning scheme routes to.
        self.buffers: list[StreamBuffer | _ChainedLeg] = []
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

#: Seconds one scheduled execution of a source keeps calling
#: ``generate``: the per-execution Granules cost (run lock, strategy
#: poll, scheduling lock) is paid per quantum, not per packet.  Not a
#: config field: 0.2 / 1 / 5 ms measured 5.3-5.8 / 5.0-5.6 / 4.9-5.9 us
#: of CPU per packet and p50 6.2-7.2 / 7.7-8.6 / 8.0-11.8 ms on ``repro
#: bench``'s relay graph pinned to one CPU (7.5-13.2 / 7.0-9.5 /
#: 6.9-16.2 ms unpinned) - nothing to tune.
_SOURCE_QUANTUM = 0.001

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
    the operator: ``ctx.emit`` and ``ctx.new_packet`` are the functions
    :meth:`bind_links` compiled for this instance, with no forwarding
    object or method in between.
    """

    emit: Callable[..., None]
    new_packet: Callable[..., StreamPacket]

    def __init__(
        self,
        job: "_JobRuntime",
        spec: OperatorSpec,
        index: int,
        chained: bool = False,
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
        # Compiled by bind_links() once the out-links are wired: each
        # stream's ``(emit, new_packet)``; with one stream they are
        # ``ctx.emit``/``ctx.new_packet`` themselves.
        self._streams: dict[str, tuple[Callable[..., None], Callable[..., StreamPacket]]] = {}
        self.emit = self._emit_named
        self.new_packet = self._new_named
        self._out_buffers: tuple[StreamBuffer, ...] = ()
        self._chained: tuple[_ChainedLeg, ...] = ()
        self._free_lists: dict[PacketSchema, _PacketFreeList] = {}
        # A chained receiver is no Granules task: it has no channel, no
        # strategy and no worker thread, and runs when the instance
        # that sends to it (``chained_from``, set when the leg is
        # wired) hands a batch over.
        self.chained_from: _InstanceRuntime | None = None
        if not (spec.is_source or chained):
            cfg = job.graph.config
            self.channel = WatermarkChannel(
                high_watermark=cfg.inbound_high_watermark,
                low_watermark=cfg.low_watermark(),
            )
            self.attach_dataset(_ChannelDataset("inbound", self.channel))

    def bind_links(self) -> None:
        """Compile the send path; call once ``out_links`` is complete.

        Per stream, a sender (:func:`_compile_sender`) and a leaser over
        the free list of its schema (:func:`_compile_leaser`); with one
        stream they become ``ctx.emit`` and ``ctx.new_packet``, and a
        named stream is one dict lookup away.  Also sorts every outbound
        leg of this instance: stream buffers, which the flush paths
        walk, apart from chained legs, which only this instance's own
        executions hand over.
        """
        legs = [
            leg for links in self.out_links.values() for out in links for leg in out.buffers
        ]
        self._out_buffers = tuple(leg for leg in legs if isinstance(leg, StreamBuffer))
        self._chained = tuple(leg for leg in legs if isinstance(leg, _ChainedLeg))
        mint = self._mint_note if self._tracing else None
        for stream, links in self.out_links.items():
            schema = links[0].link.schema
            free = self._free_lists.get(schema)
            if free is None:
                free = self._free_lists[schema] = _PacketFreeList(schema)
            self._streams[stream] = (
                _compile_sender(links, self._emit_named, mint),
                _compile_leaser(free, self._new_named),
            )
        if len(self._streams) == 1:
            self.emit, self.new_packet = next(iter(self._streams.values()))

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
        profiled = _profiler._ACTIVE
        if profiled:
            _profiler.set_thread_owner(self.op_label)
        try:
            if self.spec.is_source:
                self._generate_quantum()
            else:
                self._process_available()
        except BaseException as exc:
            # Recorded here (the framework records it again) so that
            # whoever awaits the job, woken below, finds it.
            self.failure = exc
            self.job.sources_done.set()
            raise
        finally:
            # The end of this execution unit (a source's quantum, an
            # ``on_schedule``): chained receivers run now, on this
            # thread.  In the ``finally`` so that what an operator
            # emitted before it raised is still delivered.
            for leg in self._chained:
                leg.hand_over()
            if profiled:
                _profiler.clear_thread_owner()

    def _generate_quantum(self) -> None:
        """Run ``generate`` back to back for one time-bounded quantum
        (paper §III-B2: one scheduled execution carries a batch).

        ``finished``/``paused`` are re-read before every call, so a
        quiesced checkpoint stops the source within one packet, and a
        ``generate`` that sleeps past the quantum (an open-loop source)
        gets exactly one call per execution.
        """
        generate = self.operator.generate  # type: ignore[union-attr]
        monotonic = time.monotonic
        deadline = monotonic() + _SOURCE_QUANTUM
        while not (self.finished or self.paused):
            generate(self)
            if monotonic() >= deadline:
                break
        self.metrics.executions += 1

    def _process_available(self) -> None:
        if self.channel is None:
            return  # chained: input arrives by hand-over, not by schedule
        # One drain = one channel lock acquisition for the whole
        # inbound batch (paper §III-B2: batched scheduling amortizes
        # per-packet synchronization into per-batch synchronization).
        frames = self.channel.drain()
        out_bufs = self._out_buffers
        chained = self._chained
        if not frames:
            # Time/count-triggered execution with no pending data.
            if self.spec.scheduling is not None:
                for buf in out_bufs:
                    buf.inherit(None)  # what a schedule emits is born now
                for leg in chained:
                    leg.inherit(None)
                self.operator.on_schedule(self)  # type: ignore[union-attr]
                self.metrics.executions += 1
            return
        op: StreamProcessor = self.operator  # type: ignore[assignment]
        obs = self._observer
        ctx = self  # the operator's EmitContext
        total_packets = 0
        total_bytes = 0
        latency = self.metrics.latency
        for frame, put_at, in_link, born in frames:
            self._verify_sequence(frame)
            # What this batch's processing emits is as old as the batch.
            for buf in out_bufs:
                buf.inherit(born)
            for leg in chained:
                leg.inherit(born)
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
                    if note is None:
                        op.process(packet, ctx)
                    else:
                        self._process_traced(op, packet, note, drain_ts)
                    n += 1
            op.on_batch_end(ctx)
            for leg in chained:
                leg.hand_over()  # this batch's output, as one batch
            total_packets += n
            # Zero-copy flush protocol: an in-process sender parked its
            # pooled bytearray in the frame; hand it back now that the
            # batch is fully decoded (no-op for wire/compressed bytes).
            recycle = in_link.recycle
            if recycle is not None:
                recycle(frame.body)
        self._count_execution(len(frames), total_packets, total_bytes)
        if out_bufs and not len(self.channel):
            # Out of input, about to go idle: output whose packets have
            # already spent ``buffer_max_delay`` on this resource leaves
            # now, on this thread, instead of sitting out a second
            # bound in this hop's buffer.  With a batch already queued
            # this thread runs again at once and its appends fill the
            # frame, so a flush here would buy no latency.
            now = time.monotonic()
            for buf in out_bufs:
                buf.flush_if_spent(now)

    def _count_execution(self, frames: int, packets: int, nbytes: int) -> None:
        """One telemetry update per execution, not per packet."""
        metrics = self.metrics
        metrics.batches_in += frames
        metrics.bytes_in += nbytes
        metrics.packets_in += packets
        metrics.executions += 1
        obs = self._observer
        if obs is not None:
            obs.event(
                "runtime",
                "batch_executed",
                operator=self.op_label,
                frames=frames,
                packets=packets,
            )

    def _process_traced(
        self, op: StreamProcessor, packet: StreamPacket, note: TraceNote, drain_ts: float
    ) -> None:
        """``process`` for a sampled packet: its hop's execute stage
        ends at the first derived emit, or here on a terminal hop."""
        self._active_trace = _ActiveTrace(note, drain_ts, time.monotonic())
        op.process(packet, self)
        active = self._active_trace
        self._active_trace = None
        if active is not None and not active.consumed:
            self._observer.collector.add(
                close_hop(
                    note, active.drain_ts, active.deser_ts, time.monotonic(), self.op_label
                )
            )

    def _run_chained(
        self,
        rows: list[list[Any]],
        packet: StreamPacket,
        born: float | None,
        notes: list[TraceNote],
        now: float,
    ) -> None:
        """One batch handed over by the chained leg into this instance,
        on the sender's thread (:meth:`_ChainedLeg.hand_over`, which
        also lends ``packet``, the leg's scratch).

        The batch model of :meth:`_process_available` without the hop:
        this instance's output inherits ``born``, the operator sees
        ``on_batch_start(len(rows))``, one ``process`` per row over one
        scratch packet re-pointed at each, ``on_batch_end``; then its
        own chained legs hand over in turn.  What the operator raises
        is this instance's failure and goes no further: the sender
        carries on as it would with a failed receiver behind a buffer,
        and later batches are dropped like frames in a dead task's
        channel.
        """
        if self.state in (TaskState.FAILED, TaskState.TERMINATED):
            return
        sender = self.chained_from
        assert sender is not None
        profiled = _profiler._ACTIVE
        if profiled:
            _profiler.set_thread_owner(self.op_label)
        op: StreamProcessor = self.operator  # type: ignore[assignment]
        ctx = self
        chained = self._chained
        try:
            for buf in self._out_buffers:
                buf.inherit(born)
            for leg in chained:
                leg.inherit(born)
            op.on_batch_start(len(rows), ctx)
            if not notes:
                process = op.process
                for row in rows:
                    packet._values = row
                    process(packet, ctx)
            else:
                note_map = {note.batch_index: note for note in notes}
                for i, row in enumerate(rows):
                    packet._values = row
                    note = note_map.get(i)
                    if note is None:
                        op.process(packet, ctx)
                    else:
                        self._process_traced(op, packet, note, now)
            op.on_batch_end(ctx)
            self._count_execution(0, len(rows), 0)  # a hand-over, not a frame
            self.executions += 1  # the framework's count, for a task it runs
            # Never more input queued behind a hand-over: output that
            # has spent its budget upstream leaves now (see
            # ``_process_available``).
            for buf in self._out_buffers:
                buf.flush_if_spent()
        except BaseException as exc:
            self.failure = exc
            self.state = TaskState.FAILED
            self.job.sources_done.set()
        finally:
            for leg in chained:
                leg.hand_over()
            if profiled:
                _profiler.set_thread_owner(sender.op_label)

    def _verify_sequence(self, frame: Frame) -> None:
        expected = self._expected_seq.get(frame.link_id, 0)
        if frame.seq != expected:
            raise NeptuneError(
                f"{self.task_id}: wire link {frame.link_id} frame seq {frame.seq}, "
                f"expected {expected} — ordering violation"
            )
        self._expected_seq[frame.link_id] = frame.seq + 1

    # -- emission ------------------------------------------------------------
    def _stream(
        self, stream: str | None
    ) -> tuple[Callable[..., None], Callable[..., StreamPacket]]:
        """The compiled ``(emit, new_packet)`` of a named stream."""
        if stream is None:
            if not self.out_links:
                raise NeptuneError(f"{self.task_id}: emit with no outgoing links")
            raise NeptuneError(
                f"{self.task_id}: multiple outgoing streams "
                f"{sorted(self.out_links)}; name one explicitly"
            )
        try:
            return self._streams[stream]
        except KeyError:
            raise NeptuneError(
                f"{self.task_id}: no outgoing stream {stream!r}; "
                f"declared: {sorted(self.out_links)}"
            ) from None

    def _emit_named(self, packet: StreamPacket, stream: str | None = None) -> None:
        """``ctx.emit`` on a named stream, or with no stream to default to."""
        self._stream(stream)[0](packet)

    def _new_named(self, stream: str | None = None) -> StreamPacket:
        """``ctx.new_packet`` on a named stream, or with no default."""
        return self._stream(stream)[1]()

    def _mint_note(self) -> TraceNote | None:
        """Trace context for this emit: fresh at sources (sampled),
        inherited at hop+1 when processing a traced packet."""
        obs = self._observer
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

    def _refresh_output_metrics(self) -> None:
        """Derive the output counters from the stream buffers (any
        thread; the emit path itself counts nothing per packet)."""
        packets = size = 0
        blocked = 0.0
        for buf in self._out_buffers + self._chained:
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
        if self.job.sources_finished():
            self.job.sources_done.set()

    def flush_all(self) -> None:
        """Force-flush every outbound buffer."""
        for buf in self._out_buffers:
            buf.flush()

    @property
    def pending_out_bytes(self) -> int:
        """Unflushed outbound bytes across all link legs."""
        return sum(buf.pending_bytes for buf in self._out_buffers)


class _InLinkInfo:
    """Receiver-side per-link decode state (codec reuse, §III-B3).

    ``recycle`` closes the zero-copy loop for local legs: it is the
    sending :class:`StreamBuffer`'s ``recycle`` bound method (set by
    :func:`_wire_partition` once the buffer exists), called by the
    receiver once a frame's stolen bytearray body is fully decoded.
    It stays None for a leg whose sender is on another resource.
    """

    __slots__ = ("codec", "compression_used", "recycle")

    def __init__(self, codec: PacketCodec, compression_used: bool) -> None:
        self.codec = codec
        self.compression_used = compression_used
        self.recycle: Any = None


class _JobRuntime:
    """All runtime state for one submitted graph on one resource: one
    *part* of the job, as :func:`repro.core.job.drain` sees it."""

    def __init__(self, graph: StreamProcessingGraph, observer: Any = None) -> None:
        self.graph = graph
        self.observer = observer  # RuntimeObserver | None (duck-typed)
        self.metrics = MetricsRegistry()
        self.instances: dict[str, list[_InstanceRuntime]] = {}
        self.state = JobState.CREATED
        self.resource: Resource | None = None  # set by launch()
        self._failures: dict[str, BaseException] = {}
        self.buffers: list[StreamBuffer] = []
        self.chains: list[_ChainedLeg] = []  # the legs that got no buffer
        # Set once every hosted source has finished - or something
        # failed: either way whoever awaits the job has work to do.
        self.sources_done = threading.Event()

    def all_instances(self) -> list[_InstanceRuntime]:
        """Every operator instance of this job, flattened."""
        return [i for group in self.instances.values() for i in group]

    def tasks(self) -> list[_InstanceRuntime]:
        """The hosted instances that are Granules tasks - each may hold
        a worker thread; a chained receiver borrows its sender's."""
        return [i for i in self.all_instances() if i.chained_from is None]

    def sources_finished(self) -> bool:
        """Every hosted source has declared itself finished."""
        return all(i.finished for i in self.all_instances() if i.spec.is_source)

    def launch(self, resource: Resource) -> None:
        """Schedule every hosted instance on ``resource``: sources poll
        until finished, a processor gets its declared ``scheduling``
        strategy, data-driven dispatch otherwise.  A chained receiver
        is initialized and left to its sender - every one of them
        before the first task is launched, because a launched task may
        hand a batch over at once, and ``setup`` comes before
        ``process``."""
        self.resource = resource
        for inst in self.all_instances():
            if inst.chained_from is not None:
                inst._framework_initialize()
        for inst in self.tasks():
            strategy: SchedulingStrategy
            if inst.spec.is_source:
                strategy = _SourceStrategy(inst)
            elif inst.spec.scheduling is not None:
                strategy = inst.spec.scheduling()
            else:
                strategy = DataDrivenStrategy()
            resource.launch(inst, strategy)
        self.state = JobState.RUNNING

    def terminate(self) -> None:
        """Terminate every hosted instance (teardown of a job that was
        launched)."""
        assert self.resource is not None
        for inst in self.all_instances():
            if inst.chained_from is None:
                self.resource.terminate_task(inst.task_id)
            else:
                inst._framework_terminate()

    # -- the part surface of repro.core.job.drain ---------------------------
    def wait_sources(self, timeout: float) -> bool:
        """Block until every hosted source has finished or a failure
        was recorded; False after ``timeout`` seconds.  Told, not
        polling: ``finish``, a failing execution and a dead link set
        the event; the re-read is for a part that hosts no source."""
        if not self.sources_done.is_set() and self.sources_finished():
            self.sources_done.set()
        return self.sources_done.wait(timeout)

    def finish_sources(self) -> None:
        """Declare every hosted source finished (``stop``)."""
        for inst in self.all_instances():
            inst.finished = True
        self.sources_done.set()

    def prepare_drain(self) -> None:
        """Enter the drain.  It overrides custom scheduling
        (periodic/count-based): a count threshold must not strand the
        final sub-threshold frames in a channel forever."""
        if self.state is JobState.RUNNING:
            self.state = JobState.DRAINING
        if self.resource is None:
            return
        for inst in self.all_instances():
            if not inst.spec.is_source and inst.spec.scheduling is not None:
                try:
                    self.resource.set_strategy(inst.task_id, DataDrivenStrategy())
                except KeyError:
                    pass  # already terminated

    def flush_all(self) -> None:
        """Force-flush every hosted instance's outbound buffers."""
        for inst in self.all_instances():
            inst.flush_all()

    def is_quiet(self) -> bool:
        """Sources finished and nothing in flight on this resource."""
        return self.sources_finished() and self.quiet()

    @property
    def failures(self) -> dict[str, BaseException]:
        """What failed so far: hosted instances under 'operator[index]'
        (read live), anything else under the key it was recorded with."""
        for inst in self.all_instances():
            if inst.failure is not None:
                self._failures.setdefault(inst.op_label, inst.failure)
        return self._failures

    def record_failure(self, key: str, exc: BaseException) -> None:
        """Record a failure no instance raised (a dead link) and wake
        whoever awaits the job."""
        self._failures.setdefault(key, exc)
        self.sources_done.set()

    def quiet(self) -> bool:
        """No hosted instance executing, holding inbound frames, or
        holding unflushed output."""
        for inst in self.all_instances():
            if inst.state is TaskState.RUNNING:
                return False
            if inst.channel is not None and len(inst.channel) > 0:
                return False
            if inst.pending_out_bytes > 0:
                return False
        return True


#: A frame header has one u32 for the wire id, which packs the link
#: and both instance indexes, so that every resource derives the same
#: ids from the shared graph without coordination.
_MAX_LINKS = 1 << 8
_MAX_PARALLELISM = 1 << 12


def _wire_id(link_id: int, s_idx: int, r_idx: int) -> int:
    return (link_id << 24) | (s_idx << 12) | r_idx


def _check_wire_ranges(graph: StreamProcessingGraph) -> None:
    """Refuse a graph whose legs would not get distinct wire ids: two
    legs aliased onto one id share a sequence space, and a link id past
    the field's width fails only at the first flush onto a socket."""
    for spec in graph.operators.values():
        if spec.parallelism > _MAX_PARALLELISM:
            raise GraphValidationError(
                f"operator {spec.name!r}: parallelism {spec.parallelism} exceeds "
                f"the {_MAX_PARALLELISM} instances a wire id can tell apart"
            )
    if len(graph.links) > _MAX_LINKS:
        extra = graph.links[_MAX_LINKS]
        raise GraphValidationError(
            f"link {extra.from_op!r}->{extra.to_op!r} on stream {extra.stream!r}: "
            f"the graph has {len(graph.links)} links, a wire id numbers {_MAX_LINKS}"
        )


def _compression_enabled(cfg: NeptuneConfig, link: LinkSpec) -> bool:
    if link.compression is None:
        return cfg.compression_enabled
    return link.compression


def _gate_callback(
    obs: Any,
    operator: str,
    channel: WatermarkChannel,
    throttles: tuple[str, ...],
) -> Callable[[bool], None]:
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
        attrs["buffered_bytes"] = channel.buffered_bytes
        if not gated:
            attrs["gated_seconds"] = channel.last_gate_seconds
        obs.event(
            "flowcontrol",
            "gate_closed" if gated else "gate_opened",
            **attrs,
        )

    return on_gate


def _local_leg(
    wire_id: int,
    channel: WatermarkChannel,
    in_info: _InLinkInfo,
    emit_timeout: float | None,
) -> Callable[..., bool]:
    """The leg to a receiver on this resource.

    The batch is framed with a per-leg sequence number
    (receiver-verified ordering) and put into the destination channel
    together with the metadata the receiver needs: the put timestamp
    (latency), the decode info, and ``born`` - when the batch's oldest
    packet entered the job on this resource, which the receiver's own
    output inherits (``StreamBuffer.inherit``).  The channel item is
    ``(frame, put_time, in_link_info, born)``; a frame arriving from
    another resource is born on arrival.  The put blocks under
    backpressure; with a configured ``emit_timeout`` a saturated
    downstream eventually surfaces :class:`BackpressureTimeout` instead
    of waiting forever.
    """
    seq_counter = [0]

    def deliver(body, count, trace, born, on_wait) -> bool:
        seq = seq_counter[0]
        seq_counter[0] = seq + 1
        frame = Frame(FrameHeader(wire_id, seq, count, len(body), 0), body, trace)
        try:
            ok = channel.put(
                len(body),
                (frame, time.monotonic(), in_info, born),
                timeout=emit_timeout,
                on_wait=on_wait,
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
        return True

    return deliver


def _remote_leg(
    wire_id: int, reach: Callable[[str, int], Any], op: str, idx: int
) -> Callable[..., bool]:
    """The leg to instance ``idx`` of ``op`` on another resource:
    ``reach(op, idx)`` is the :class:`~repro.net.transport.TcpTransport`
    to whoever hosts it."""

    def deliver(body, count, trace, born, on_wait) -> bool:
        # Resolved lazily: peer workers start asynchronously, so
        # their data listeners may not be accepting yet at wiring
        # time; the first flush waits for them.
        reach(op, idx).send(wire_id, body, count, trace, on_wait=on_wait)
        # send() materialized the wire bytes (or wrote them out).
        return False

    return deliver


class _ChainedLeg:
    """The leg a link gets when :func:`~repro.core.graph.chain_barrier`
    finds no barrier: no buffer, no frame, no thread for the receiver.

    Between two single-instance operators on one resource a hop buys no
    parallelism, so this leg is not one.  It sits in
    ``_OutLinkRuntime.buffers`` where the :class:`StreamBuffer` would,
    and the sender calls its :meth:`appender` where it would call
    ``StreamBuffer.append_packet``: the buffered leg's schema and
    completeness checks, then the packet's field values kept as a row,
    each as an encode and a decode would have left it
    (:func:`~repro.core.fieldtypes.compile_as_decoded` - an out-of-range
    int raises here, naming the field, under the sender's label; a
    FLOAT32 is rounded; a ``bytearray`` or a list is copied, so a sender
    may reuse it), which for a float, a str, a bool or ``bytes`` is the
    value itself.  Nothing is encoded.  The rows are handed to the
    receiver **on the sender's thread** (:meth:`hand_over`) at the end
    of the sender's execution unit - a source's quantum, a processor's
    inbound batch, an ``on_schedule`` - or sooner, when what they would
    weigh encoded reaches ``buffer_capacity`` (a str counted at one byte
    a character), so batches are the size a buffer would have made them
    and memory stays bounded.

    ``born`` is a buffer's: the first row of a batch stamps it, with
    what the sender inherited if it inherited anything, and the
    receiver's output inherits it - the chain spends none of
    ``buffer_max_delay``.  ``blocked_seconds`` is the time the sender
    spent inside hand-overs: "held up by downstream", as on a buffered
    leg.  Only the sender's thread touches a leg; readers of the
    counters may be a batch stale.
    """

    __slots__ = (
        "name",
        "receiver",
        "capacity",
        "born",
        "handoffs",
        "packets",
        "blocked_seconds",
        "cpu_seconds",
        "_rows",
        "_count",
        "_bytes",
        "_as_decoded",
        "_notes",
        "_inherited",
        "_packet",
        "_timed",
    )

    def __init__(
        self,
        name: str,
        receiver: _InstanceRuntime,
        schema: PacketSchema,
        capacity: int,
        timed: bool,
    ) -> None:
        self.name = name
        self.receiver = receiver
        self.capacity = capacity
        # Leaves a row as an encode and a decode would have, and says
        # what it would have weighed between the two.
        self._as_decoded = compile_as_decoded(schema.types)
        self.born: float | None = None
        self.handoffs = 0
        self.packets = 0  # handed over
        self.blocked_seconds = 0.0
        # Thread CPU seconds inside hand-overs, kept only under an
        # observer: against ``blocked_seconds`` it shows a receiver that
        # waits off the CPU (``repro doctor``: ``chained_off_cpu``).
        self.cpu_seconds = 0.0
        self._timed = timed
        # The rows are reused from batch to batch (object reuse,
        # §III-B3): ``_count`` of them are pending.  A fresh list per
        # packet would be two container allocations per packet on a
        # relay - a gen-0 collection every few hundred packets, where
        # the buffered path allocates only bytes.
        self._rows: list[list[Any]] = []
        self._count = 0
        self._bytes = 0
        self._notes: list[TraceNote] = []
        self._inherited: float | None = None
        self._packet = StreamPacket(schema)  # lent to ``process``, row by row

    def appender(self, swap: bool) -> Callable[[Any, Any, Any], bool]:
        """This leg's ``append(codec, packet, note)``: keep ``packet``'s
        values as a row; True if that handed the batch over.  Raises
        what ``StreamBuffer.append_packet`` raises for a packet of
        another schema or with an unset field, and a value that cannot
        cross with nothing changed: not the packet, the pending rows,
        their count, weight or ``born``.

        A packet built by hand is copied into a consumed row, so its
        values stay its own.  With ``swap`` - the sender's only leg, and
        a sender that returns a leased packet to its free list without
        blanking it - a *leased* packet's own values list becomes the
        row, and the packet takes back a consumed row, blanked: one
        copy fewer a hop.
        """
        leg = self
        rows = self._rows
        schema = self._packet.schema
        blank = schema._blank
        as_decoded = self._as_decoded
        capacity = self.capacity
        monotonic = time.monotonic
        hand_over = self.hand_over

        def append(codec: Any, packet: Any, note: Any) -> bool:
            values = packet._values
            if (packet.schema is not schema and packet.schema != schema) or None in values:
                codec.reject(packet)
            count = leg._count
            try:
                if swap and packet._home is not None:
                    size = as_decoded(values)  # leaves a row it refuses as it was
                    if count < len(rows):
                        row = rows[count]
                        rows[count] = values
                        row[:] = blank
                    else:
                        rows.append(values)
                        row = list(blank)
                    packet._values = row
                else:
                    if count < len(rows):
                        row = rows[count]
                        row[:] = values
                    else:
                        row = values[:]
                        rows.append(row)
                    # A refused row is overwritten by the next append.
                    size = as_decoded(row)
            except Exception:
                _refuse_row(schema, values)
                raise
            if not count:
                inherited = leg._inherited
                leg.born = monotonic() if inherited is None else inherited
            if note is not None:
                note.batch_index = count
                note.append_ts = monotonic()
                leg._notes.append(note)
            leg._count = count + 1
            leg._bytes = size = leg._bytes + size
            if size < capacity:
                return False
            hand_over()
            return True

        return append

    def inherit(self, born: float | None) -> None:
        """What the rows that follow are made from (see
        :meth:`StreamBuffer.inherit`).  Called at the sender's batch
        boundaries, where a hand-over has just left nothing pending."""
        self._inherited = born

    def hand_over(self) -> None:
        """Run the receiver over the pending rows, here and now."""
        count = self._count
        if not count:
            return
        self._count = self._bytes = 0
        rows = self._rows
        if count < len(rows):
            rows = rows[:count]
        notes = self._notes
        started = time.monotonic()
        if notes:
            self._notes = []
            # Nothing is taken, sent or drained: those stages of the
            # hop are empty, and the six still tile.
            for note in notes:
                note.take_ts = note.send_ts = started
        self.handoffs += 1
        self.packets += count
        cpu = time.thread_time() if self._timed else 0.0
        self.receiver._run_chained(rows, self._packet, self.born, notes, started)
        self.blocked_seconds += time.monotonic() - started
        if self._timed:
            self.cpu_seconds += time.thread_time() - cpu

    def appended(self) -> tuple[int, int]:
        """``(packets, bytes)`` ever appended; nothing is serialised."""
        return self.packets + self._count, 0

    def receiver_seconds(self) -> tuple[float, float]:
        """``(wall, thread CPU)`` seconds the receiver's *own* batches
        took: the hand-overs, less what the receiver spent inside its
        own chained legs and held up by its own buffers."""
        receiver = self.receiver
        nested = receiver._chained
        wall = self.blocked_seconds - sum(
            out.blocked_seconds for out in receiver._out_buffers + nested
        )
        cpu = self.cpu_seconds - sum(out.cpu_seconds for out in nested)
        return max(wall, 0.0), max(cpu, 0.0)


def _refuse_row(schema: PacketSchema, values: list[Any]) -> None:
    """Raise what refused a chained row, naming the first field that
    refuses on its own (returns if none does)."""
    for name, ftype, value in zip(schema.names, schema.types, values):
        try:
            compile_as_decoded((ftype,))([value])
        except Exception as exc:
            raise SerializationError(f"field {name!r}: {exc}") from exc


#: Schemes that send everything to instance 0 when there is one
#: instance - so a sender to one receiver need not ask them.  A custom
#: scheme is always asked, and so is ``direct``: it validates a field.
_ONE_RECEIVER_SCHEMES = (
    RoundRobinPartitioning,
    ShufflePartitioning,
    FieldsPartitioning,
    BroadcastPartitioning,
)


def _compile_sender(
    links: list[_OutLinkRuntime],
    named: Callable[..., None],
    mint: Callable[[], TraceNote | None] | None,
) -> Callable[..., None]:
    """``emit(packet, stream=None)`` for one outgoing stream, generated
    for the legs ``links`` have (``named`` takes a named ``stream``).

    Per link: a one-receiver link whose scheme is built in appends to
    its leg without routing; any other asks the scheme once and appends
    to the legs it names.  An append is ``StreamBuffer.append_packet``
    or a chained leg's :meth:`_ChainedLeg.appender`.  Only a traced
    sender (``mint``) has note code: the note goes to the first leg a
    packet reaches, so its journey stays one stage chain.  Then a
    leased packet goes back to its free list, blanked - by the append
    itself when it is the sender's one unrouted append, to a chained
    leg, which swaps a consumed row in (``swap``).
    """
    note = "None" if mint is None else "note"
    scope: dict[str, Any] = {"named": named, "mint": mint}
    lines = [
        "def emit(packet, stream=None):",
        "    if stream is not None:",
        "        return named(packet, stream)",
    ]
    if mint is not None:
        lines.append("    note = mint()")
    unrouted = [
        len(out.buffers) == 1 and type(out.scheme) in _ONE_RECEIVER_SCHEMES for out in links
    ]
    swap = (
        mint is None and unrouted == [True] and isinstance(links[0].buffers[0], _ChainedLeg)
    )
    for k, out in enumerate(links):
        appends = [
            leg.appender(swap) if isinstance(leg, _ChainedLeg) else leg.append_packet
            for leg in out.buffers
        ]
        scope[f"codec{k}"] = out.codec
        if unrouted[k]:
            scope[f"append{k}"] = appends[0]
            lines.append(f"    append{k}(codec{k}, packet, {note})")
            indent = "    "
        else:
            scope[f"route{k}"] = out.scheme.route
            scope[f"append{k}"] = tuple(appends)
            lines += [
                f"    for dest in route{k}(packet, {len(appends)}):",
                f"        append{k}[dest](codec{k}, packet, {note})",
            ]
            indent = "        "
        if mint is not None:
            lines.append(indent + "note = None")
    lines += [
        "    home = packet._home",
        "    if home is not None:",
        "        packet._home = None",
        *([] if swap else ["        packet._values[:] = home.schema._blank"]),
        f"        if len(home) < {_FREE_LIST_LIMIT}:",
        "            home.append(packet)",
        "        else:",
        "            home.overflow += 1",
    ]
    exec("\n".join(lines), scope)  # noqa: S102 - source is built above
    return scope["emit"]  # type: ignore[no-any-return]


def _compile_leaser(
    free: _PacketFreeList, named: Callable[..., StreamPacket]
) -> Callable[..., StreamPacket]:
    """``new_packet(stream=None)``: a packet leased from ``free``,
    which ``emit`` hands back (``named`` takes a named ``stream``)."""
    schema = free.schema

    def new_packet(stream: str | None = None) -> StreamPacket:
        if stream is not None:
            return named(stream)
        if free:
            pkt = free.pop()
            free.reused += 1
        else:
            pkt = StreamPacket(schema)
            free.created += 1
        pkt._home = free
        return pkt

    return new_packet


def _leg_buffer(
    name: str,
    cfg: NeptuneConfig,
    deliver: Callable[..., bool],
    policy: CompressionPolicy | None,
    observer: Any,
) -> StreamBuffer:
    """One link leg's :class:`StreamBuffer`, with its flush sink.

    The sink runs once per flush, under the buffer's flush lock (one
    flush at a time): the body is (optionally) compressed, the batch's
    trace notes are claimed, and ``deliver`` — the leg kind, the only
    thing that differs between legs — gets it to the receiver.  The
    seconds the delivery waited are handed back to the buffer (its
    ``blocked_seconds``); compressing and framing are not waits.

    Zero-copy protocol: the buffer hands this sink its pooled
    accumulation bytearray.  On a local leg, uncompressed, the
    bytearray itself is parked in the frame and the *receiver* recycles
    it after decoding (``_InLinkInfo.recycle``).  Compressed, the frame
    holds fresh policy-encoded bytes, and on a remote leg the transport
    has consumed the body by the time ``send`` returns — so in both
    cases the sink recycles the original immediately.
    """
    leg = LegTrace() if observer is not None else None
    waits: list[float] = []

    def sink(body: bytes | bytearray | memoryview, count: int) -> float | None:
        """Deliver one flushed batch; returns the seconds the delivery
        waited for its receiver, if any."""
        raw = body
        if policy is not None:
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
        parked = deliver(body, count, trace, buf.taken_born, waits.append)
        if not parked or body is not raw:
            buf.recycle(raw)
        if not waits:
            return None
        waited = sum(waits)
        waits.clear()
        return waited

    buf = StreamBuffer(
        capacity=cfg.buffer_capacity,
        sink=sink,
        max_delay=cfg.buffer_max_delay,
        name=name,
        trace_leg=leg,
        observer=observer,
    )
    return buf


def _wire_partition(
    job: _JobRuntime,
    hosts: Callable[[str, int], bool],
    prefix: str,
    reach: Callable[[str, int], Any] | None,
    flush_service: FlushTimerService,
) -> dict[int, tuple[WatermarkChannel, _InLinkInfo]]:
    """Build one resource's partition of ``job.graph``.

    ``hosts(op, idx)`` says which instances live on this resource.
    Each gets its runtime; each (sender instance, link, destination
    instance) leg whose sender is hosted gets one buffer and, by where
    its receiver lives, a local or a remote leg (``reach``, see
    :func:`_remote_leg`; never called when every receiver is hosted) -
    unless :func:`~repro.core.graph.chain_barrier` finds no barrier on
    the link, and it gets a :class:`_ChainedLeg` and no buffer.
    ``prefix`` labels this resource's buffers and gate events
    (``"w3:"``; empty when there is only one resource).

    Returns ``wire_id → (channel, in_info)`` for every leg whose
    *receiver* is hosted — what frames arriving from other resources
    are routed by.
    """
    graph = job.graph
    cfg = graph.config
    observer = job.observer
    _check_wire_ranges(graph)
    # Receivers of the links chained here (one instance, one link in).
    chained_ops = {
        link.to_op
        for link in graph.links
        if chain_barrier(graph, link, hosts) is None and hosts(link.to_op, 0)
    }
    local: dict[tuple[str, int], _InstanceRuntime] = {}
    for spec in graph.operators.values():
        job.instances[spec.name] = [
            _InstanceRuntime(job, spec, i, chained=spec.name in chained_ops)
            for i in range(spec.parallelism)
            if hosts(spec.name, i)
        ]
        for inst in job.instances[spec.name]:
            local[(spec.name, inst.index)] = inst

    inbound: dict[int, tuple[WatermarkChannel, _InLinkInfo]] = {}
    for link in graph.links:
        receivers = graph.operators[link.to_op].parallelism
        chained = link.to_op in chained_ops
        compression_on = not chained and _compression_enabled(cfg, link)
        for s_idx in range(graph.operators[link.from_op].parallelism):
            sender = local.get((link.from_op, s_idx))
            out = None
            if sender is not None:
                out = _OutLinkRuntime(link)
                if compression_on:
                    out.policy = CompressionPolicy(
                        enabled=True,
                        entropy_threshold=cfg.compression_entropy_threshold,
                        min_size=cfg.compression_min_size,
                    )
                sender.out_links.setdefault(link.stream, []).append(out)
            for r_idx in range(receivers):
                wire_id = _wire_id(link.link_id, s_idx, r_idx)
                receiver = local.get((link.to_op, r_idx))
                name = (
                    f"{prefix}{link.from_op}[{s_idx}]->"
                    f"{link.to_op}[{r_idx}]/{link.stream}"
                )
                if chained:
                    assert out is not None and receiver is not None
                    leg = _ChainedLeg(
                        name, receiver, link.schema, cfg.buffer_capacity, observer is not None
                    )
                    receiver.chained_from = sender
                    out.buffers.append(leg)
                    job.chains.append(leg)
                    continue
                in_info = None
                if receiver is not None:
                    assert receiver.channel is not None
                    in_info = _InLinkInfo(PacketCodec(link.schema), compression_on)
                    inbound[wire_id] = (receiver.channel, in_info)
                if out is None:
                    continue
                if receiver is not None:
                    deliver = _local_leg(
                        wire_id, receiver.channel, in_info, cfg.emit_timeout
                    )
                else:
                    assert reach is not None
                    deliver = _remote_leg(wire_id, reach, link.to_op, r_idx)
                buf = _leg_buffer(
                    name,
                    cfg,
                    deliver,
                    out.policy,
                    observer,
                )
                if in_info is not None:
                    # Close the zero-copy loop: the receiver returns
                    # stolen flush bytearrays straight to this buffer.
                    in_info.recycle = buf.recycle
                    if receiver.spec.scheduling is None:
                        # Rotate at the batch boundary: a data-driven
                        # receiver runs when a batch lands, so whoever
                        # filled the batch waits (within the buffer's
                        # patience) until it is taken before filling
                        # the next.  A receiver with its own schedule
                        # asked for batches to accumulate.
                        buf.after_capacity_flush = receiver.channel.wait_taken
                out.buffers.append(buf)
                job.buffers.append(buf)
                flush_service.register(buf)
    for inst in local.values():
        inst.bind_links()
        # A chain executes under its head's run lock: that is what
        # "not executing" means for every instance in it (checkpoints).
        head = inst
        while head.chained_from is not None:
            head = head.chained_from
        inst._run_lock = head._run_lock

    # Backpressure visibility: watermark gate transitions land on
    # the observer's event timeline, carrying the upstream operators
    # the closed gate throttles (bare graph names) so `repro doctor`
    # can reconstruct the cascade (which stalled buffer throttled which
    # senders) — across worker boundaries too.
    if observer is not None:
        for inst in local.values():
            if inst.channel is not None:
                senders = (lk.from_op for lk in graph.incoming_links(inst.spec.name))
                inst.channel.on_gate_change(
                    _gate_callback(
                        observer,
                        prefix + inst.op_label,
                        inst.channel,
                        tuple(dict.fromkeys(senders)),
                    )
                )
    return inbound


def _apply_reconfigure(
    changes: dict, jobs: list[_JobRuntime], resource: Resource | None
) -> list[dict]:
    """Apply ``changes`` (see :meth:`NeptuneRuntime.reconfigure`) to one
    resource's buffers and worker pool; returns what was applied."""
    applied: list[dict] = []
    retune = changes.get("retune")
    if retune:
        md = retune.get("max_delay")
        cap = retune.get("capacity")
        operator = str(retune.get("operator", ""))
        where = str(retune.get("where", "into"))
        buffers = [buf for job in jobs for buf in job.buffers]
        for entry in retune_matching(
            buffers,
            operator,
            where=where,
            max_delay=None if md is None else float(md),
            capacity=None if cap is None else int(cap),
        ):
            applied.append({"kind": "retune", **entry})
        chained = [
            leg.name
            for job in jobs
            for leg in job.chains
            if leg_matches(leg.name, operator, where)
        ]
        if chained and not any(leg_matches(b.name, operator, where) for b in buffers):
            # Nothing to retune and nothing healed: say so, not "[]".
            applied.append({"kind": "retune", "skipped": "chained", "legs": chained})
    scale = changes.get("scale")
    if scale and resource is not None:
        old = resource.workers
        delta = scale.get("workers_delta")
        target = old + int(delta) if delta is not None else int(scale.get("workers", old))
        new = resource.resize(max(1, target))
        applied.append({"kind": "scale", "from": old, "to": new})
    return applied


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
        # One resource hosts every instance, so every leg is local.
        _wire_partition(job, lambda op, idx: True, "", None, self._flush_service)
        if restore_from is not None:
            for inst in job.all_instances():
                state = restore_from.state_for(inst.spec.name, inst.index)
                restore = getattr(inst.operator, "restore_state", None)
                if state is not None and restore is not None:
                    restore(state)
        # Launch on the (lazily sized) Granules resource.
        self._ensure_resource(job)
        assert self._resource is not None
        job.launch(self._resource)
        with self._lock:
            self._jobs.append(job)
        return JobHandle(self, job)

    def _ensure_resource(self, job: _JobRuntime) -> None:
        """(Re)size the worker pool to cover every hosted task."""
        hosted = sum(len(j.tasks()) for j in self._jobs) + len(job.tasks())
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
          deadline pokes the flush-timer service automatically.  When
          the only legs that match are chained - no buffer to retune -
          the report says ``{"kind": "retune", "skipped": "chained"}``.
        - ``scale``: ``{"workers": n}`` or ``{"workers_delta": d}`` —
          resize the Granules worker-thread pool to ``n`` (or by ``d``
          relative to the current size, floored at 1 thread; up or
          down, running tasks finish first).

        Returns a JSON-able report of what was actually applied.
        """
        with self._lock:
            jobs = list(self._jobs)
        return {"applied": _apply_reconfigure(changes, jobs, self._resource)}

    # -- link failures ------------------------------------------------------
    def notify_link_failure(self, exc: BaseException, link: str = "link") -> None:
        """Record a terminal transport failure against every running job.

        Wire this as a :class:`~repro.net.transport.TcpTransport`
        ``on_link_failure`` callback: an exhausted reconnect budget then surfaces through
        ``JobHandle.failures`` exactly like an operator crash, which is
        what checkpoint-based supervisors such as
        :class:`~repro.chaos.recovery.RecoveryCoordinator` key on.
        """
        with self._lock:
            jobs = list(self._jobs)
        for job in jobs:
            job.record_failure(link, exc)

    # -- checkpointing -----------------------------------------------------
    def _checkpoint_job(self, job: _JobRuntime, timeout: float):
        """Snapshot operator state (see repro.core.checkpoint).

        A running job's sources are paused and the pipeline drained
        before the snapshot, so the cut contains no in-flight packets:
        restored state + source replay positions cover the stream
        exactly once.  A job that is not running is snapshotted as it is.
        """
        from repro.core.checkpoint import take_checkpoint

        if job.state is not JobState.RUNNING:
            return take_checkpoint(job)
        sources = [i for i in job.all_instances() if i.spec.is_source]
        for inst in sources:
            inst.paused = True
        try:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                job.flush_all()
                if job.quiet():
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

    # -- drain / stop -------------------------------------------------------
    def _await_job(self, job: _JobRuntime, timeout: float, force_finish: bool) -> bool:
        if job.state in (JobState.STOPPED, JobState.FAILED):
            return True
        if job.state is JobState.CREATED:
            raise JobStateError("job was never started")
        return drain(
            [job],
            timeout,
            force=force_finish,
            teardown=lambda: self._teardown_job(job),
        )

    def _teardown_job(self, job: _JobRuntime) -> None:
        job.terminate()
        for buf in job.buffers:
            self._flush_service.unregister(buf)
        with self._lock:
            if job in self._jobs:
                self._jobs.remove(job)
        job.state = JobState.FAILED if job.failures else JobState.STOPPED
