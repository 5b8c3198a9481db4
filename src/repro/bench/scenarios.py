"""The overhead gate: every row reaches its verdict inside one run.

:data:`PLANES` is one table — ``observe``, ``health``, ``sanitizer``,
``collector`` (in-process and, on the process-spawning tiers, over real
workers), ``profiler``, ``policy`` — of (plane-off arm, plane-on arm)
pairs with their budgets, and :func:`run_plane` is the one A/B protocol
that judges them all.  ``cluster_scaling`` runs the relay through real
worker *processes* at each worker count in the profile and holds the
scale-up between the largest and smallest count to its floor; it is
skipped on the smoke tier, because tier-1 test runs must never spawn
processes.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.bench.harness import BenchProfile, BenchResult
from repro.core.config import NeptuneConfig
from repro.core.fieldtypes import FieldType
from repro.core.graph import (
    OperatorFactory,
    StreamProcessingGraph,
    descriptor_factory,
)
from repro.core.operators import EmitContext, StreamProcessor, StreamSource
from repro.core.packet import PacketSchema, StreamPacket
from repro.core.runtime import NeptuneRuntime
from repro.util.errors import NeptuneError

if TYPE_CHECKING:  # the planes themselves are imported by the arms that run them
    from repro.core.job import JobHandle
    from repro.observe import RuntimeObserver

#: Relay-pipeline schema: one stamp, one payload value.
RELAY_SCHEMA = PacketSchema(
    [
        ("seq", FieldType.INT64),
        ("emit_ts", FieldType.FLOAT64),
        ("reading", FieldType.FLOAT64),
    ]
)


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
    """Terminal stage recording source-emit → process latency.  Nothing
    reads the latencies: recording them is part of the per-packet work
    every plane's budget was measured against."""

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


#: Buffer cut for ``collector_cluster``: ~40 packets a batch (what
#: ``perf``'s ``relay_paced`` timer cuts) instead of ~1 300, so that two
#: worker *processes* take ten collector polls, not five, to move
#: ``buffered_packets``.
SMALL_BATCH = 1024


def _relay_config(profile: BenchProfile, capacity: int = 32 * 1024) -> NeptuneConfig:
    return NeptuneConfig(
        buffer_capacity=capacity, buffer_max_delay=profile.relay_max_delay
    )


def _relay_graph(
    name: str,
    packets: int,
    config: NeptuneConfig,
    sink: "OperatorFactory | None" = None,
    buffered: tuple[str, ...] = (),
) -> StreamProcessingGraph:
    """The one source → relay → sink graph behind every plane arm.
    Operators are named by import path so worker processes can build
    them; an in-process caller passes the factory of a
    ``sink`` it holds, to read its counters afterwards.  On one
    resource both links chain; an arm whose subject is a buffered leg
    (its gate, its retune, its hand-overs) names the receivers that
    keep one in ``buffered`` (``chain=False`` on the link into each)."""
    graph = StreamProcessingGraph(name, config=config)
    graph.add_source(
        "source", descriptor_factory(f"{__name__}:_RelaySource", total=packets)
    )
    graph.add_processor("relay", descriptor_factory(f"{__name__}:_Relay"))
    graph.add_processor(
        "sink", sink or descriptor_factory(f"{__name__}:_LatencySink")
    )
    graph.link("source", "relay", chain="relay" not in buffered)
    graph.link("relay", "sink", chain="sink" not in buffered)
    return graph


def _local_relay(
    profile: BenchProfile,
    name: str,
    observer: "RuntimeObserver | None" = None,
    start: "Callable[[JobHandle], Callable[[], object]] | None" = None,
) -> float:
    """Wall seconds of one in-process, chained relay run of
    ``profile.relay_packets`` under ``observer``.

    ``start(handle)`` switches a plane on once the job is submitted and
    returns what switches it off again after the drain.
    """
    sink = _LatencySink()
    packets = profile.relay_packets
    graph = _relay_graph(name, packets, _relay_config(profile), lambda: sink)
    t0 = time.perf_counter()
    with NeptuneRuntime(observer=observer) as runtime:
        handle = runtime.submit(graph)
        stop = start(handle) if start is not None else None
        ok = handle.await_completion(timeout=300)
        if stop is not None:
            stop()
    wall = time.perf_counter() - t0
    if not ok:
        raise RuntimeError(f"{name}: relay did not complete in 300s")
    if sink.count != packets:
        raise RuntimeError(f"{name}: relay lost packets: {sink.count}/{packets}")
    return wall


# --------------------------------------------------------------------------
# The overhead gate: one table of planes, one A/B protocol (DESIGN.md §10)
# --------------------------------------------------------------------------

#: A plane's own compute may take at most this share of the run it rides.
DUTY_BUDGET = 0.03
#: Wall-clock A/B noise on a shared runner (±10%) is several times the
#: duty budget, so A/B only backstops a catastrophe: plane work leaking
#: onto the data plane's hot path, which a duty figure cannot see.
AB_BACKSTOP = 0.25
#: ... except where the on arm has no thread of its own to meter: an
#: attached, tracing-off observer is gated on the A/B delta itself.
OBSERVE_AB_BUDGET = 0.03
#: The policed drain must beat the stalled control by this factor.
HEAL_FLOOR = 1.25
#: Four worker processes must move the cluster relay this much faster
#: than one.
SCALEUP_FLOOR = 2.5
#: Fewer periodic ticks than this in an on arm and its duty is a ratio
#: of two small numbers: the trial was too short to judge.
MIN_TICKS = 10


@dataclass
class ArmRun:
    """What one run of one arm measured."""

    wall: float
    #: Seconds of the plane's own compute inside ``wall`` (on arm only).
    cost: float = 0.0
    #: How many times the plane did its periodic work (on arm only).
    ticks: int = 0
    #: Arm-specific metrics, reported as the worst (max) over repeats.
    extra: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Plane:
    """One row of the overhead gate: two arms and what bounds them."""

    name: str
    #: ``arm(profile, on)`` runs the job once, plane off or on.
    arm: Callable[[BenchProfile, bool], ArmRun]
    #: What the off arm is, and what the on arm adds to it.
    off: str
    on: str
    #: What ``ArmRun.cost`` and ``ArmRun.ticks`` count for this plane.
    cost: str = ""
    tick: str = ""
    #: Which repeat's duty is judged: the ``worst``, or the ``min`` —
    #: for costs measured across threads or processes, where the spread
    #: over repeats is the runner's scheduling and not the plane's code.
    statistic: str = "worst"
    duty_budget: "float | None" = DUTY_BUDGET
    ab_budget: "float | None" = AB_BACKSTOP
    heal_floor: "float | None" = None
    min_ticks: int = MIN_TICKS
    #: The ``BenchProfile`` field holding the arms' packet count.
    packets: str = "relay_packets"
    #: Arms that launch worker processes: skipped, like
    #: ``cluster_scaling``, on tiers without ``cluster_worker_counts``.
    spawns: bool = False


def run_plane(plane: Plane, profile: BenchProfile) -> BenchResult:
    """The A/B protocol, the same for every row of :data:`PLANES`.

    Warm both arms, then interleave ``profile.repeats`` off/on pairs
    (machine drift hits both arms alike), each arm behind a
    ``gc.collect()`` — the previous arm's job is cyclic garbage, and
    freed mid-run its gen-2 pass (~70 ms) can land on the very thread
    being metered.  Wall times compare min-of-N (the repeat the machine
    disturbed least); duty is the plane's cost seconds over its own
    run's wall, judged on the row's statistic; ticks are the fewest any
    on arm saw.  Every budget the row sets is judged and every miss is
    returned as a line in ``failures`` — nothing is raised, so one red
    plane cannot hide the next.  The smoke tier runs the same arms
    un-gated: its trials are too short for any of the ratios.
    """

    def run(on: bool) -> ArmRun:
        gc.collect()
        return plane.arm(profile, on)

    run(False)
    run(True)
    pairs = [(run(False), run(True)) for _ in range(max(1, profile.repeats))]
    n = len(pairs)
    ons = [on for _, on in pairs]
    off_wall = min(off.wall for off, _ in pairs)
    on_wall = min(on.wall for on in ons)
    ab = (on_wall - off_wall) / off_wall
    duties = [on.cost / on.wall for on in ons]
    duty = max(duties) if plane.statistic == "worst" else min(duties)
    ticks = min(on.ticks for on in ons)

    packets = int(getattr(profile, plane.packets))
    metrics = {
        "wall_sec_off": off_wall,
        "wall_sec_on": on_wall,
        "packets_per_sec_off": packets / off_wall,
        "packets_per_sec_on": packets / on_wall,
        "ab_overhead_frac": ab,
    }
    verdict = (
        f"{plane.off} {off_wall:.3f}s -> {plane.on} {on_wall:.3f}s (min of {n})"
    )
    failures: list[str] = []

    def judge(ok: bool, reading: str, budget: str) -> None:
        nonlocal verdict
        verdict += f"; {reading} ({budget})"
        if not ok:
            failures.append(f"{plane.name}: {reading}; {budget}")

    if plane.ab_budget is not None:
        budget = f"budget < {plane.ab_budget:.0%}"
        judge(ab < plane.ab_budget, f"A/B {ab:+.1%}", budget)
    if plane.heal_floor is not None:
        speedup = metrics["speedup"] = off_wall / on_wall
        floor = f"floor {plane.heal_floor}x"
        judge(speedup >= plane.heal_floor, f"heal {speedup:.2f}x", floor)
    if plane.duty_budget is not None:
        metrics["duty_frac"] = duty
        judge(
            duty < plane.duty_budget,
            f"{plane.cost} duty {duty:.2%} {plane.statistic}-of-{n}",
            f"budget < {plane.duty_budget:.0%}",
        )
    if plane.min_ticks:
        metrics["ticks"] = float(ticks)
        judge(
            ticks >= plane.min_ticks,
            f"{ticks} {plane.tick}",
            f"needs >= {plane.min_ticks}, else run too short",
        )
    for key in ons[0].extra:
        metrics[key] = max(on.extra[key] for on in ons)
    result = BenchResult(plane.name, metrics)
    if profile.name == "smoke":
        result.verdict = f"{verdict}: not gated on this tier"
    else:
        result.failures = failures
        result.verdict = f"{verdict}: {'FAIL' if failures else 'OK'}"
    return result


def _observe_arm(profile: BenchProfile, on: bool) -> ArmRun:
    """No observer at all vs one attached with tracing off (timeline
    and instruments on): what every other plane's off arm carries."""
    from repro.observe import RuntimeObserver

    observer = RuntimeObserver(sample_every=0) if on else None
    return ArmRun(_local_relay(profile, "bench-observe", observer))


def _health_arm(profile: BenchProfile, on: bool) -> ArmRun:
    """An idle observer vs the same with a background
    :class:`~repro.observe.HealthEngine` scanning at 10 Hz.  The engine
    does nothing between scans, so the scanning thread's CPU seconds
    inside ``scan_once`` are its whole cost; the wall seconds there
    (``wall_overhead_frac``, reported only) add its waits for the GIL
    behind the busy workers."""
    from repro.observe import HealthEngine, RuntimeObserver, bridge, default_slos

    observer = RuntimeObserver(sample_every=0)
    if not on:
        return ArmRun(_local_relay(profile, "bench-health", observer))
    engines: list[HealthEngine] = []

    def start(handle: "JobHandle") -> "Callable[[], object]":
        # Budgets far above anything the relay produces: the row
        # bounds the cost of watching, not of reacting to a breach.
        slos = default_slos(
            ["source", "relay", "sink"], latency_budget=60.0, e2e_budget=None
        )
        engine = HealthEngine(
            observer,
            slos,
            scrape=lambda: bridge.scrape_job(observer.registry, handle),
            interval=0.1,
        )
        engine.start()
        engines.append(engine)
        return engine.stop

    wall = _local_relay(profile, "bench-health", observer, start)
    engine = engines[0]
    return ArmRun(
        wall,
        engine.scan_cpu_seconds,
        engine.scans,
        {"wall_overhead_frac": engine.scan_seconds / wall},
    )


def _sanitizer_arm(profile: BenchProfile, on: bool) -> ArmRun:
    """A :class:`~repro.analysis.sanitizer.LockOrderSanitizer` installed
    dormant (every runtime lock wrapped, nothing recorded — the
    instrumentation fixture) vs recording in 10% duty windows.  An
    end-to-end delta of a few percent is scheduler jitter, so the cost
    is causal: the marginal price of one recorded acquire, calibrated
    on this machine, times the acquires the run's windows witnessed."""
    from repro.analysis.sanitizer import LockOrderSanitizer, calibrate_recording

    marginal = calibrate_recording() if on else 0.0
    sanitizer = LockOrderSanitizer(duty=0.1 if on else 0.0, window=0.25)
    sanitizer.install()
    try:
        wall = _local_relay(profile, "bench-sanitizer")
    finally:
        sanitizer.uninstall()
    witness = sanitizer.witness()
    if witness.dropped_edges:
        raise RuntimeError(
            f"sanitizer dropped {witness.dropped_edges} edges: MAX_EDGES too small"
        )
    if not on and witness.acquires:
        raise RuntimeError("dormant sanitizer recorded acquires: duty gate broken")
    return ArmRun(wall, marginal * witness.acquires, witness.acquires)


def _profiler_arm(profile: BenchProfile, on: bool) -> ArmRun:
    """A :class:`~repro.observe.profiler.SamplingProfiler` attached but
    never started (what production carries when nobody is profiling:
    the ownership hook on every execute) vs sampling at 50 Hz.  Its
    ``sample_seconds`` — the sampler thread's CPU time walking
    ``sys._current_frames`` and folding stacks — is what the profiler's
    own ``max_duty`` throttle budgets, so the row checks the throttle's
    arithmetic against a real run."""
    from repro.observe import RuntimeObserver
    from repro.observe.profiler import SamplingProfiler

    observer = RuntimeObserver()
    profiler = observer.profiler = SamplingProfiler(hz=50.0)

    def start(_handle: "JobHandle") -> "Callable[[], object]":
        profiler.start()
        return profiler.stop

    wall = _local_relay(profile, "bench-profiler", observer, start if on else None)
    if profiler.errors:
        raise RuntimeError(f"profiler sweep errors: {profiler.errors}")
    return ArmRun(wall, profiler.sample_seconds, profiler.samples)


def _collector_arm(profile: BenchProfile, on: bool) -> ArmRun:
    """The relay as a two-worker in-process distributed job under a
    1-in-1024 sampling observer, vs the same plus the cluster telemetry
    plane: a :class:`~repro.observe.collector.DeltaSource` building
    bounded deltas and a :class:`~repro.observe.collector
    .ClusterCollector` polling, absorbing and stitching them every
    0.25 s.  The delta build runs inside the collector's fetch, on the
    polling thread, so ``poll_cpu_seconds`` is the plane's whole cost.
    Span shipping dominates it, so the bound is for this sampling rate
    (~300 spans/s here); suites that trace every packet trade that
    cost for coverage deliberately."""
    from repro.core.distributed import DistributedJob
    from repro.observe import RuntimeObserver
    from repro.observe.collector import ClusterCollector, DeltaSource

    sink = _LatencySink()
    graph = _relay_graph(
        "bench-collector",
        profile.buffered_packets,
        _relay_config(profile),
        lambda: sink,
    )
    observer = RuntimeObserver(sample_every=1024)
    job = DistributedJob(graph, n_workers=2, observer=observer)
    collector: "ClusterCollector | None" = None
    source: "DeltaSource | None" = None
    t0 = time.perf_counter()
    job.start()
    if on:
        source = DeltaSource(observer, 0, worker=job.workers[0])
        collector = ClusterCollector(interval=0.25)
        collector.attach(0, source.collect)
        collector.start()
    ok = job.await_completion(timeout=300)
    if collector is not None:
        collector.stop()
        collector.poll_once()  # the tail, same as the coordinator's hook
    wall = time.perf_counter() - t0
    if not ok:
        raise RuntimeError("bench-collector: relay did not complete in 300s")
    if sink.count != profile.buffered_packets:
        raise RuntimeError(
            f"bench-collector: relay lost packets: "
            f"{sink.count}/{profile.buffered_packets}"
        )
    if collector is None or source is None:
        return ArmRun(wall)
    return ArmRun(
        wall,
        collector.poll_cpu_seconds,
        collector.polls,
        {
            "collector_wall_overhead_frac": collector.poll_seconds / wall,
            "collector_spans_shipped": float(source.spans_shipped),
        },
    )


def _collector_cluster_arm(profile: BenchProfile, on: bool) -> ArmRun:
    """The same relay across two real worker *processes*, observability
    off vs the full plane on: per-worker observer + ``DeltaSource`` +
    flight recorder, and the coordinator's collector polling over the
    control channel.  The cost is the workers' delta-build CPU plus the
    coordinator's merge CPU — not raw poll time, most of which is the
    coordinator waiting for a busy worker's control thread while the
    data plane runs at full speed (that contention shows in the A/B).
    Wall runs from after ``launch`` to the sample that shows the sink
    complete, so interpreter start-up, alike in both arms, cancels."""
    from repro.cluster import ClusterCoordinator

    total = profile.buffered_packets
    coordinator = ClusterCoordinator(
        _relay_graph(
            "bench-collector-cluster", total, _relay_config(profile, SMALL_BATCH)
        ),
        n_workers=2,
        observe={"sample_every": 1024} if on else None,
        collect_interval=0.25,
    )
    cost = 0.0
    polls = 0
    try:
        job = coordinator.launch(connect_timeout=120)
        t0 = time.perf_counter()
        deadline = time.monotonic() + 300
        while job.metrics().get("sink", {}).get("packets_in", 0) < total:
            if time.monotonic() > deadline:
                raise RuntimeError("bench-collector-cluster: relay stalled")
            time.sleep(0.03)
        wall = time.perf_counter() - t0
        # Read the counters at the window's edge: the drain below runs
        # more polls and the coordinator's tail collect.
        collector = coordinator.collector
        if on and collector is not None:
            if not collector.absorbed:
                raise RuntimeError("bench-collector-cluster: no delta absorbed")
            cost = collector.poll_cpu_seconds
            polls = collector.polls
            for worker in coordinator.handles:
                info = (worker.proxy.collect_info() if worker.proxy else None) or {}
                cost += float(info.get("build_cpu_seconds", 0.0))
        if not coordinator.await_completion(timeout=120):
            raise RuntimeError("bench-collector-cluster: drain failed")
        final = coordinator.metrics()["sink"]["packets_in"]
        if final != total:
            raise RuntimeError(
                f"bench-collector-cluster: relay lost packets: {final}/{total}"
            )
    finally:
        coordinator.terminate()
    return ArmRun(wall, cost, polls)


def _policy_arm(profile: BenchProfile, on: bool) -> ArmRun:
    """A pipeline rigged to need the policy, drained unpoliced vs
    policed.  A tiny capacity cut makes frames of a handful of packets
    and the sink pays a fixed cost per *batch*
    (:class:`~repro.workloads.BatchOverheadSink`), so its inbound
    channel backs up against the watermark.  The policed arm scans a
    ``buffer_occupancy`` SLO at 10 Hz and feeds every breach/recover
    transition through diagnose → PolicyEngine →
    :func:`~repro.observe.policy.apply_action` against the live runtime
    (the coordinator's ``on_scan`` hook, minus the processes).  Both
    arms are sleep-bound, so the heal ratio is stable across runners.
    Cost is the whole observe+decide plane: scan seconds plus time in
    the diagnose/decide/apply hook.  A tick is a closed loop — a breach
    that produced an action; a policy that never fires is a dead code
    path, not a cheap one."""
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

    total = profile.policy_packets
    sink = BatchOverheadSink(overhead=0.004 if profile.name == "smoke" else 0.012)
    graph = _relay_graph(
        "bench-policy",
        total,
        NeptuneConfig(
            buffer_capacity=256,
            buffer_max_delay=0.5,
            inbound_high_watermark=16384,
        ),
        lambda: sink,
        # The sink sleeps per batch, and what heals it is a retune of
        # the buffer in front of it: it keeps that buffer.
        buffered=("sink",),
    )
    observer = RuntimeObserver(sample_every=0) if on else None
    hook_seconds = 0.0
    breaches = 0
    recoveries = 0
    t0 = time.perf_counter()
    with NeptuneRuntime(observer=observer) as runtime:
        handle = runtime.submit(graph)
        if observer is None:
            if not handle.await_completion(timeout=600):
                raise RuntimeError("bench-policy: did not complete in 600s")
        else:
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
                nonlocal breaches, recoveries, hook_seconds
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
                hook_seconds += time.perf_counter() - t_hook

            # Foreground 10 Hz scan loop, progress polled off the
            # sink's own counter.
            scan_deadline = time.monotonic() + 600
            while sink.seen < total:
                if handle.failures:
                    raise RuntimeError(f"bench-policy: job failed: {handle.failures}")
                if time.monotonic() > scan_deadline:
                    raise RuntimeError(
                        f"bench-policy: stalled at {sink.seen}/{total} packets"
                    )
                time.sleep(0.1)
                scan_and_decide()
            if not handle.await_completion(timeout=60):
                raise RuntimeError("bench-policy: did not drain")
            # The backlog is gone; a few post-drain scans let the
            # monitor's clear hysteresis observe the recovery.
            for _ in range(3):
                scan_and_decide()
    wall = time.perf_counter() - t0
    if sink.seen != total:
        raise RuntimeError(f"bench-policy: lost packets: {sink.seen}/{total}")
    if observer is None:
        return ArmRun(wall)
    actions = len(policy.decisions)
    return ArmRun(
        wall,
        hook_seconds + engine.scan_seconds,
        min(actions, breaches),
        {
            "policy_actions": float(actions),
            "slo_breaches": float(breaches),
            "slo_recoveries": float(recoveries),
        },
    )


#: Every observability/analysis plane, as (off arm -> on arm) and the
#: budgets it is held to.  All arms run :func:`_relay_graph`: chained,
#: in process, at ``profile.relay_packets``; the two collector planes
#: across workers at ``buffered_packets``; ``policy`` at
#: ``policy_packets`` behind a stalling sink.
PLANES: tuple[Plane, ...] = (
    Plane(
        "observe",
        _observe_arm,
        off="no observer",
        on="observer, tracing off",
        duty_budget=None,
        ab_budget=OBSERVE_AB_BUDGET,
        min_ticks=0,
    ),
    Plane(
        "health",
        _health_arm,
        off="observer",
        on="+10 Hz health engine",
        cost="scan CPU",
        tick="scans",
    ),
    Plane(
        "sanitizer",
        _sanitizer_arm,
        off="installed, duty 0",
        on="duty 0.1",
        cost="marginal cost x acquires",
        tick="recorded acquires",
    ),
    Plane(
        "collector",
        _collector_arm,
        off="2 in-process workers, 1/1024 sampling",
        on="+collector",
        cost="poll CPU",
        tick="polls",
        packets="buffered_packets",
    ),
    Plane(
        "collector_cluster",
        _collector_cluster_arm,
        off="2 worker processes",
        on="+observers, collector",
        cost="delta build + merge CPU",
        tick="polls",
        statistic="min",
        packets="buffered_packets",
        spawns=True,
    ),
    Plane(
        "profiler",
        _profiler_arm,
        off="installed, dormant",
        on="sampling at 50 Hz",
        cost="sample seconds",
        tick="sweeps",
        statistic="min",
    ),
    Plane(
        "policy",
        _policy_arm,
        off="stalled sink",
        on="policed",
        cost="scan + diagnose + decide + apply",
        tick="breach -> action loops",
        ab_budget=None,
        heal_floor=HEAL_FLOOR,
        min_ticks=1,
        packets="policy_packets",
    ),
)


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
    multi-core CI runners.  The rates are sleep-bound, not CPU-bound;
    the row judges their ratio between the smallest and the largest
    count (1 and 4 workers on every spawning tier) against
    :data:`SCALEUP_FLOOR`, inside the one run.
    """
    result = BenchResult("cluster_scaling")
    rates: dict[int, float] = {}
    for n_workers in profile.cluster_worker_counts:
        rates[n_workers] = _cluster_rate(profile, n_workers)
        result.metrics[f"relay_pps_w{n_workers}"] = rates[n_workers]
    low, high = min(rates), max(rates)
    scaleup = rates[high] / max(rates[low], 1e-9)
    result.metrics[f"scaleup_w{high}"] = scaleup
    result.metrics["packets"] = float(profile.cluster_packets)
    reading = (
        f"{rates[low]:.0f} pkts/s at {low} workers -> {rates[high]:.0f} "
        f"at {high}; scale-up {scaleup:.2f}x (floor {SCALEUP_FLOOR}x)"
    )
    if scaleup < SCALEUP_FLOOR:
        result.failures.append(f"cluster_scaling: {reading}")
    result.verdict = f"{reading}: {'FAIL' if result.failures else 'OK'}"
    return result


def run_scenarios(profile: BenchProfile) -> list[BenchResult]:
    """Run every row under ``profile`` in a fixed order: each plane of
    :data:`PLANES`, then ``cluster_scaling`` on the tiers that spawn.
    One that breaks (lost packets, a stalled job, workers that never
    came up) becomes a failure line of its own, empty, result: the rest
    still run."""
    spawn = bool(profile.cluster_worker_counts)
    runs: list[tuple[str, Callable[[BenchProfile], BenchResult]]] = [
        (plane.name, partial(run_plane, plane))
        for plane in PLANES
        if spawn or not plane.spawns
    ]
    if spawn:
        runs.append(("cluster_scaling", scenario_cluster_scaling))
    results: list[BenchResult] = []
    for name, scenario in runs:
        try:
            results.append(scenario(profile))
        except (RuntimeError, NeptuneError) as exc:
            results.append(BenchResult(name, failures=[f"{name}: {exc}"]))
    return results
