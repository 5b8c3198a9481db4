"""Canned chaos scenarios: the CLI's and the test-suite's shared driver.

Two scenario shapes, both seeded and reproducible:

- :func:`run_wire_scenario` — a raw :class:`TcpTransport` →
  :class:`TcpListener` link under an injected fault plan.  Every frame
  carries a payload derived from its ``(link, seq)``, so the receiver
  can verify not just exactly-once *delivery* but byte-exact *content*
  after drops, duplicates, truncations, bit flips, and connection
  kills have been healed by the recovery protocol.  Fault decisions
  depend only on ``(seed, site, index)`` and send-side interceptions
  happen in send order, so the fault trace is byte-identical across
  runs with the same seed — the determinism regression anchor.
- :func:`run_pipeline_scenario` — a full two-resource NEPTUNE pipeline
  (source → relay → sink across :class:`DistributedJob` workers) with
  scripted mid-stream connection kills.  The acceptance check for the
  recovery machinery: the sink must observe every sequence number
  exactly once, in order, despite sockets dying under it.

Receive-side (``tcp.recv.*``) faults intercept per received *chunk*;
chunk boundaries depend on kernel scheduling, so rate plans targeting
those sites still heal correctly but are not trace-deterministic.
The determinism guarantee is for send-side and scripted plans.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultAction, FaultPlan, FaultRates
from repro.lz4 import xxh32
from repro.net.framing import Frame
from repro.net.transport import RetryPolicy, TcpListener, TcpTransport


def wire_payload(link_id: int, seq: int, size: int) -> bytes:
    """Deterministic, content-checkable payload for (link, seq)."""
    stamp = xxh32(f"{link_id}:{seq}".encode()).to_bytes(4, "little")
    reps = size // 4 + 1
    return (stamp * reps)[:size]


@dataclass
class WireScenarioResult:
    """Outcome of one :func:`run_wire_scenario` run."""

    seed: int
    frames_sent: int
    delivered: int
    #: (link, seq) pairs never delivered / delivered more than once /
    #: delivered with the wrong bytes or packet count.
    lost: list = field(default_factory=list)
    duplicated: list = field(default_factory=list)
    corrupted: list = field(default_factory=list)
    #: Recovery observability.
    reconnects: int = 0
    replayed_frames: int = 0
    duplicates_suppressed: int = 0
    gap_resets: int = 0
    corruption_resets: int = 0
    injected_resets: int = 0
    trace_lines: list = field(default_factory=list)
    trace_digest: int = 0

    @property
    def exactly_once(self) -> bool:
        """Every frame delivered exactly once with correct bytes."""
        return (
            self.delivered == self.frames_sent
            and not self.lost
            and not self.duplicated
            and not self.corrupted
        )

    def summary(self) -> str:
        """Multi-line human-readable report."""
        verdict = "EXACTLY-ONCE" if self.exactly_once else "VIOLATION"
        lines = [
            f"wire scenario seed={self.seed}: {verdict}",
            f"  frames: sent={self.frames_sent} delivered={self.delivered} "
            f"lost={len(self.lost)} duplicated={len(self.duplicated)} "
            f"corrupted={len(self.corrupted)}",
            f"  recovery: reconnects={self.reconnects} "
            f"replayed={self.replayed_frames} "
            f"dup_suppressed={self.duplicates_suppressed} "
            f"gap_resets={self.gap_resets} "
            f"corruption_resets={self.corruption_resets} "
            f"injected_resets={self.injected_resets}",
            f"  faults fired: {len(self.trace_lines)} "
            f"(trace digest {self.trace_digest:#010x})",
        ]
        return "\n".join(lines)


def run_wire_scenario(
    seed: int = 0,
    frames: int = 60,
    payload_size: int = 256,
    links: int = 2,
    rates: FaultRates | None = None,
    plan: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    drain_timeout: float = 15.0,
    observer=None,
) -> WireScenarioResult:
    """Drive one faulty TCP link to completion and audit delivery.

    ``plan`` overrides ``rates``; with neither, a default mixed plan
    (drop/duplicate/truncate/bitflip/kill at a few percent each) is
    derived from ``seed``.  Sends round-robin across ``links`` link
    ids so multi-link replay-window pruning is exercised too.
    """
    if plan is None:
        if rates is None:
            rates = FaultRates(
                drop=0.04,
                duplicate=0.04,
                truncate=0.03,
                bitflip=0.03,
                kill_connection=0.03,
            )
        plan = FaultPlan(seed=seed).with_rates("tcp.send", rates)
    if retry is None:
        retry = RetryPolicy(
            max_retries=8, backoff_base=0.01, backoff_max=0.2, seed=seed
        )
    injector = FaultInjector(plan, observer=observer)

    received: list[Frame] = []
    recv_lock = threading.Lock()

    def sink(frame: Frame) -> None:
        with recv_lock:
            received.append(frame)

    listener = TcpListener(
        "127.0.0.1", 0, sink, ack=True, resume=True, injector=injector
    )
    transport = TcpTransport(
        listener.host,
        listener.port,
        retry=retry,
        injector=injector,
        site="tcp.send",
    )
    try:
        for i in range(frames):
            link_id = 1 + (i % links)
            seq_for_link = i // links
            transport.send(link_id, wire_payload(link_id, seq_for_link, payload_size), 1)
        # Frames still unacked after the drain are lost; the audit
        # below names them.
        transport.ensure_delivered(timeout=drain_timeout, stall=0.25)
        result = WireScenarioResult(seed=seed, frames_sent=frames, delivered=0)
    finally:
        transport.close()
        listener.close()

    # -- audit ------------------------------------------------------------
    seen: dict[tuple[int, int], int] = {}
    with recv_lock:
        for frame in received:
            key = (frame.link_id, frame.seq)
            seen[key] = seen.get(key, 0) + 1
            expected = wire_payload(frame.link_id, frame.seq, payload_size)
            intact = frame.body == expected and frame.count == 1
            if not intact and key not in result.corrupted:
                result.corrupted.append(key)
    for i in range(frames):
        key = (1 + (i % links), i // links)
        count = seen.get(key, 0)
        if count == 0:
            result.lost.append(key)
        elif count > 1:
            result.duplicated.append(key)
    result.delivered = len(seen)
    result.reconnects = transport.reconnects
    result.replayed_frames = transport.replayed_frames
    result.duplicates_suppressed = listener.duplicates_suppressed
    result.gap_resets = listener.gap_resets
    result.corruption_resets = listener.corruption_resets
    result.injected_resets = listener.injected_resets
    result.trace_lines = [r.to_line() for r in injector.trace.records]
    result.trace_digest = injector.trace.digest()
    return result


@dataclass
class PipelineScenarioResult:
    """Outcome of one :func:`run_pipeline_scenario` run."""

    seed: int
    total: int
    received: list = field(default_factory=list)
    drained: bool = False
    failures: dict = field(default_factory=dict)
    reconnects: int = 0
    replayed_frames: int = 0
    duplicates_suppressed: int = 0
    trace_lines: list = field(default_factory=list)
    trace_digest: int = 0

    @property
    def exactly_once(self) -> bool:
        """The sink saw 0..total-1 exactly once, in order."""
        return (
            self.drained
            and not self.failures
            and self.received == list(range(self.total))
        )

    def summary(self) -> str:
        """Multi-line human-readable report."""
        verdict = "EXACTLY-ONCE" if self.exactly_once else "VIOLATION"
        missing = self.total - len(set(self.received))
        dupes = len(self.received) - len(set(self.received))
        lines = [
            f"pipeline scenario seed={self.seed}: {verdict}",
            f"  packets: expected={self.total} received={len(self.received)} "
            f"missing={missing} duplicated={dupes} "
            f"in_order={self.received == sorted(self.received)}",
            f"  recovery: reconnects={self.reconnects} "
            f"replayed={self.replayed_frames} "
            f"dup_suppressed={self.duplicates_suppressed} "
            f"drained={self.drained} failures={len(self.failures)}",
            f"  faults fired: {len(self.trace_lines)} "
            f"(trace digest {self.trace_digest:#010x})",
        ]
        return "\n".join(lines)


def run_pipeline_scenario(
    seed: int = 0,
    total: int = 800,
    kill_frames: tuple = (3, 9),
    n_workers: int = 2,
    timeout: float = 60.0,
    observer=None,
) -> PipelineScenarioResult:
    """Run a two-resource relay pipeline with mid-stream socket kills.

    The graph is the paper's Fig. 1 relay (source → relay → sink)
    deployed across ``n_workers`` resources over real TCP.  For every
    cross-worker direction, the ``kill_frames``-th outgoing frames are
    scripted ``kill_connection`` faults; recovery must reconnect and
    replay so the sink still observes every packet exactly once.

    Buffers are sized so flushes are capacity-triggered (the flush
    timer is effectively disabled), making frame counts — and hence
    the fault trace — deterministic for a given (total, seed).
    """
    from repro.core import NeptuneConfig, StreamProcessingGraph
    from repro.core.distributed import DistributedJob
    from repro.workloads import CollectingSink, CountingSource, RelayProcessor

    plan = FaultPlan(seed=seed)
    for src in range(n_workers):
        for dst in range(n_workers):
            if src == dst:
                continue
            site = f"tcp.send.w{src}->w{dst}"
            for idx in kill_frames:
                plan.at(site, idx, FaultAction.KILL_CONNECTION)
    injector = FaultInjector(plan, observer=observer)

    store: list = []
    cfg = NeptuneConfig(
        buffer_capacity=2048,
        buffer_max_delay=30.0,  # capacity-only flushes: deterministic framing
        transport_backoff_base=0.01,
        transport_backoff_max=0.2,
        fault_seed=seed,
    )
    g = StreamProcessingGraph(f"chaos-relay-{seed}", config=cfg)
    g.add_source("sender", lambda: CountingSource(total=total))
    g.add_processor("relay", RelayProcessor)
    g.add_processor("receiver", lambda: CollectingSink(store))
    g.link("sender", "relay").link("relay", "receiver")

    job = DistributedJob(g, n_workers=n_workers, injector=injector, observer=observer)
    job.start()
    drained = job.await_completion(timeout=timeout)
    failures = job.failures()

    result = PipelineScenarioResult(
        seed=seed,
        total=total,
        received=list(store),
        drained=drained,
        failures=failures,
    )
    for w in job.workers:
        for t in w._transports.values():
            result.reconnects += t.reconnects
            result.replayed_frames += t.replayed_frames
        result.duplicates_suppressed += w._listener.duplicates_suppressed
    # Each direction's sender is its own thread: only the order within
    # a site is deterministic, so the lines take the trace's canonical
    # (sorted) order, like its digest.
    result.trace_lines = sorted(r.to_line() for r in injector.trace.records)
    result.trace_digest = injector.trace.digest()
    return result
