"""Bridges from the runtime's existing ad-hoc counters to the registry.

The runtime already counts nearly everything the paper's analysis needs
— ``core.metrics`` operator counters, ``StreamBuffer`` flush stats,
``WatermarkChannel`` gate state, ``CompressionStats`` decisions,
packet free-list reuse counters, ``TcpTransport``/``TcpListener``
recovery stats — it just counts it in scattered instance attributes.
Rather than rewrite every hot-path increment (and pay for it), these
scrapers *pull* that state into a :class:`TelemetryRegistry` at export
time: hot paths stay untouched, and a scrape is O(instruments).

All runtime objects are duck-typed (``Any``): the bridge reads public
counters and never imports ``repro.core``/``repro.net``, so the observe
package stays dependency-free of the runtime it observes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.observe.instruments import TelemetryRegistry

__all__ = [
    "absorb_series",
    "registry_series",
    "scrape_job",
    "scrape_listener",
    "scrape_observer",
    "scrape_transport",
    "scrape_worker",
]

_QUANTILES = (50.0, 95.0, 99.0)


def scrape_job(
    registry: TelemetryRegistry,
    job: Any,
    extra: Optional[Mapping[str, str]] = None,
) -> None:
    """Scrape one job runtime (``_JobRuntime`` or a ``JobHandle``).

    Populates operator, flow-control, buffer, chained-leg,
    compression, and object-pool instruments.  Safe to call repeatedly
    (counters mirror via ``set_total`` and never move backwards).  ``extra`` labels are
    merged into every instrument — pass ``{"worker": "0"}`` when
    scraping the per-worker jobs of a distributed deployment so
    partial counts from different workers never collide on one series.
    """
    inner = getattr(job, "_job", None)
    if inner is not None:  # accept a JobHandle transparently
        job = inner
    base: Dict[str, str] = dict(extra or {})
    _scrape_operators(registry, job, base)
    _scrape_flowcontrol(registry, job, base)
    _scrape_buffers(registry, job, base)
    _scrape_chains(registry, job, base)
    _scrape_compression_and_pools(registry, job, base)


def _scrape_operators(
    registry: TelemetryRegistry, job: Any, base: Dict[str, str]
) -> None:
    snapshot: Mapping[str, Mapping[str, float]] = job.metrics.snapshot()
    for op, agg in snapshot.items():
        labels = {**base, "operator": op}
        registry.gauge(
            "neptune_operator_instances", labels, "Parallel instances of the operator"
        ).set(float(agg["instances"]))
        for key, metric, help_ in (
            ("packets_in", "neptune_operator_packets_in_total", "Packets processed"),
            ("packets_out", "neptune_operator_packets_out_total", "Packets emitted"),
            ("bytes_in", "neptune_operator_bytes_in_total", "Batch bytes received"),
            ("bytes_out", "neptune_operator_bytes_out_total", "Serialized bytes emitted"),
            ("batches_in", "neptune_operator_batches_in_total", "Frames drained"),
            ("executions", "neptune_operator_executions_total", "Scheduled executions"),
            (
                "emit_block_seconds",
                "neptune_operator_emit_block_seconds_total",
                "Seconds emits spent blocked on backpressure",
            ),
        ):
            registry.counter(metric, labels, help_).set_total(float(agg[key]))
    operators_fn = getattr(job.metrics, "operators", None)
    if operators_fn is None:
        return
    for m in operators_fn():
        labels = {**base, "operator": m.operator, "instance": str(m.instance)}
        if m.latency.count == 0:
            continue
        values = m.latency.percentiles(list(_QUANTILES))
        for q, value in zip(_QUANTILES, values):
            registry.gauge(
                "neptune_operator_batch_latency_seconds",
                {**labels, "quantile": f"p{q:g}"},
                "Channel-put to drain latency percentile per batch",
            ).set(value)


def _scrape_flowcontrol(
    registry: TelemetryRegistry, job: Any, base: Dict[str, str]
) -> None:
    for inst in job.all_instances():
        channel = getattr(inst, "channel", None)
        if channel is None:
            continue
        labels = {**base, "operator": inst.spec.name, "instance": str(inst.index)}
        registry.gauge(
            "neptune_flowcontrol_buffered_bytes", labels, "Bytes in the inbound channel"
        ).set(float(channel.buffered_bytes))
        registry.gauge(
            "neptune_flowcontrol_gated", labels, "1 while the channel gate is closed"
        ).set(1.0 if channel.gated else 0.0)
        registry.counter(
            "neptune_flowcontrol_gate_trips_total", labels, "High-watermark crossings"
        ).set_total(float(channel.gate_trips))
        registry.counter(
            "neptune_flowcontrol_writer_blocks_total", labels, "Writers blocked by the gate"
        ).set_total(float(channel.writer_blocks))
        registry.counter(
            "neptune_flowcontrol_gated_seconds_total",
            labels,
            "Cumulative seconds the channel gate spent closed",
        ).set_total(float(getattr(channel, "gated_seconds", 0.0)))


def _scrape_buffers(
    registry: TelemetryRegistry, job: Any, base: Dict[str, str]
) -> None:
    lbl = base or None
    totals = {
        "capacity_flushes": 0.0,
        "timer_flushes": 0.0,
        "budget_flushes": 0.0,
        "manual_flushes": 0.0,
        "bytes_flushed": 0.0,
        "packets_flushed": 0.0,
        "buffers_recycled": 0.0,
        "spare_allocs": 0.0,
    }
    pending = 0.0
    for buf in getattr(job, "buffers", []):
        for key in totals:
            totals[key] += float(getattr(buf, key, 0))
        pending += float(buf.pending_bytes)
    for key, metric, help_ in (
        ("capacity_flushes", "neptune_buffer_capacity_flushes_total", "Flushes on capacity"),
        ("timer_flushes", "neptune_buffer_timer_flushes_total", "Flushes on max-delay timer"),
        (
            "budget_flushes",
            "neptune_buffer_budget_flushes_total",
            "Flushes by an operator out of input whose output had spent max-delay upstream",
        ),
        ("manual_flushes", "neptune_buffer_manual_flushes_total", "Forced flushes (drain)"),
        ("bytes_flushed", "neptune_buffer_bytes_flushed_total", "Bytes flushed downstream"),
        ("packets_flushed", "neptune_buffer_packets_flushed_total", "Packets flushed"),
        (
            "buffers_recycled",
            "neptune_buffer_recycled_total",
            "Flush bytearrays returned to the double-buffer pool",
        ),
        (
            "spare_allocs",
            "neptune_buffer_spare_allocs_total",
            "Fresh bytearrays allocated because the spare pool was empty",
        ),
    ):
        registry.counter(metric, lbl, help_).set_total(totals[key])
    registry.gauge(
        "neptune_buffer_pending_bytes", lbl, "Unflushed bytes across all link legs"
    ).set(pending)


def _scrape_chains(
    registry: TelemetryRegistry, job: Any, base: Dict[str, str]
) -> None:
    """Where the buffers went: one series set per chained leg, labelled
    with the name its buffer would have had.

    The two ``receiver`` series are the receiver's *own* share of the
    hand-overs (``receiver_seconds``), which is what ``repro doctor``
    compares (``chained_off_cpu``).
    """
    for leg in getattr(job, "chains", []):
        labels = {**base, "leg": leg.name}
        wall, cpu = leg.receiver_seconds()
        for value, metric, help_ in (
            (leg.handoffs, "neptune_chain_handoffs_total", "Batches handed over on the sender's thread"),
            (leg.packets, "neptune_chain_packets_total", "Packets handed over as rows"),
            (
                wall,
                "neptune_chain_receiver_wall_seconds_total",
                "Seconds the chained receiver's own batches took",
            ),
            (
                cpu,
                "neptune_chain_receiver_cpu_seconds_total",
                "Thread CPU seconds the chained receiver's own batches took",
            ),
        ):
            registry.counter(metric, labels, help_).set_total(float(value))


def _scrape_compression_and_pools(
    registry: TelemetryRegistry, job: Any, base: Dict[str, str]
) -> None:
    lbl = base or None
    seen = compressed = bytes_in = bytes_out = secs = 0.0
    decisions: Dict[str, float] = {}
    created = reused = overflow = 0.0
    for inst in job.all_instances():
        for links in getattr(inst, "out_links", {}).values():
            for out in links:
                policy = getattr(out, "policy", None)
                if policy is None:
                    continue
                stats = policy.stats
                seen += stats.payloads_seen
                compressed += stats.payloads_compressed
                bytes_in += stats.bytes_in
                bytes_out += stats.bytes_out
                secs += stats.compress_seconds
                for decision, n in stats.decisions.items():
                    key = getattr(decision, "value", str(decision))
                    decisions[key] = decisions.get(key, 0.0) + n
        for free in getattr(inst, "_free_lists", {}).values():
            created += free.created
            reused += free.reused
            overflow += free.overflow
    for value, metric, help_ in (
        (seen, "neptune_compression_payloads_total", "Flushed payloads seen by policies"),
        (compressed, "neptune_compression_compressed_total", "Payloads actually compressed"),
        (bytes_in, "neptune_compression_bytes_in_total", "Bytes before compression"),
        (bytes_out, "neptune_compression_bytes_out_total", "Bytes after compression"),
        (secs, "neptune_compression_seconds_total", "Seconds spent in encode()"),
    ):
        registry.counter(metric, lbl, help_).set_total(value)
    for key, n in sorted(decisions.items()):
        registry.counter(
            "neptune_compression_decisions_total",
            {**base, "decision": key},
            "encode() outcomes by decision",
        ).set_total(n)
    registry.counter(
        "neptune_pool_created_total", lbl, "Packet-pool objects allocated"
    ).set_total(created)
    registry.counter(
        "neptune_pool_reused_total", lbl, "Packet-pool acquisitions served from free list"
    ).set_total(reused)
    registry.counter(
        "neptune_pool_overflow_total", lbl, "Released packets dropped by a full free list"
    ).set_total(overflow)
    acquisitions = reused + created
    registry.gauge(
        "neptune_pool_reuse_ratio", lbl, "Fraction of acquisitions served from free list"
    ).set(reused / acquisitions if acquisitions > 0 else 0.0)


def scrape_worker(
    registry: TelemetryRegistry,
    worker: Any,
    extra: Optional[Mapping[str, str]] = None,
) -> None:
    """Scrape one :class:`~repro.core.distributed.DistributedWorker`:
    its job runtime (labelled ``worker=N`` so partial per-worker counts
    stay distinct series), its outbound transports (labelled by
    destination ``peer``), and its listener."""
    wl: Dict[str, str] = dict(extra or {})
    wl.setdefault("worker", str(worker.worker_id))
    scrape_job(registry, worker.job, extra=wl)
    # Copy first: the scrape may run on a control thread while flush
    # threads are still lazily adding transports.
    for peer, transport in list(getattr(worker, "_transports", {}).items()):
        scrape_transport(registry, transport, {**wl, "peer": str(peer)})
    listener = getattr(worker, "_listener", None)
    if listener is not None:
        scrape_listener(registry, listener, wl)


def registry_series(
    registry: TelemetryRegistry,
    extra: Optional[Mapping[str, str]] = None,
) -> List[Dict[str, Any]]:
    """Flatten every instrument of ``registry`` into JSON-able series.

    Histograms ship their finite-bound cumulative counts (the +Inf
    remainder is implied by ``count``), so :func:`absorb_series` can
    reconstruct the exact bucket state on the other side.  ``extra``
    labels are merged into every sample (pass ``{"worker": "0"}`` when
    exporting a worker-local registry for the cluster collector).  The
    one place ``registry.collect()`` becomes JSON.
    """
    out: List[Dict[str, Any]] = []
    for sample in registry.collect():
        labels = dict(sample.labels or ())
        if extra:
            labels.update(extra)
        flat: Dict[str, Any] = {
            "name": sample.name,
            "kind": sample.kind,
            "help": sample.help,
            "labels": labels,
            "value": sample.value,
        }
        if sample.histogram is not None:
            hist = sample.histogram
            flat["count"] = hist.count
            flat["buckets"] = [
                [bound, cum]
                for bound, cum in hist.cumulative_buckets()
                if bound != float("inf")
            ]
        out.append(flat)
    return out


def absorb_series(registry: TelemetryRegistry, series: Any) -> None:
    """Merge :func:`registry_series` output into ``registry``.

    Counters land via ``set_total`` and histograms via
    ``set_cumulative`` (both never-backwards, so idempotent re-scrapes
    and re-delivered deltas never inflate a series), gauges via ``set``;
    unknown kinds and shape mismatches are ignored rather than
    poisoning the whole scrape.
    """
    for raw in series:
        name = raw.get("name")
        if not name:
            continue
        labels = raw.get("labels") or None
        help_ = raw.get("help", "")
        value = float(raw.get("value", 0.0))
        kind = raw.get("kind")
        if kind == "counter":
            registry.counter(name, labels, help_).set_total(value)
        elif kind == "gauge":
            registry.gauge(name, labels, help_).set(value)
        elif kind == "histogram":
            raw_buckets = raw.get("buckets") or []
            try:
                bounds = tuple(float(b[0]) for b in raw_buckets)
                hist = registry.histogram(name, labels, help_, buckets=bounds)
                hist.set_cumulative(
                    [int(b[1]) for b in raw_buckets],
                    int(raw.get("count", 0)),
                    value,
                )
            except (ValueError, TypeError, IndexError):
                continue  # malformed or bound-mismatched snapshot


def scrape_transport(
    registry: TelemetryRegistry,
    transport: Any,
    labels: Optional[Mapping[str, str]] = None,
) -> None:
    """Scrape one :class:`~repro.net.transport.TcpTransport`."""
    lbl = dict(labels or {})
    for attr, metric, help_ in (
        ("bytes_sent", "neptune_transport_bytes_sent_total", "Wire bytes written"),
        ("frames_sent", "neptune_transport_frames_sent_total", "Frames written"),
        ("acked_frames", "neptune_transport_acked_frames_total", "Frames acknowledged"),
        ("reconnects", "neptune_transport_reconnects_total", "Successful reconnects"),
        ("replayed_frames", "neptune_transport_replayed_frames_total", "Frames replayed"),
        (
            "send_stalls",
            "neptune_transport_send_stalls_total",
            "Sends that blocked on a full replay window",
        ),
    ):
        registry.counter(metric, lbl, help_).set_total(float(getattr(transport, attr, 0)))
    registry.gauge(
        "neptune_transport_unacked_frames", lbl, "Frames awaiting acknowledgement"
    ).set(float(getattr(transport, "unacked_frames", 0)))
    registry.gauge(
        "neptune_transport_unacked_bytes", lbl, "Replay-window bytes in flight"
    ).set(float(getattr(transport, "unacked_bytes", 0)))


def scrape_listener(
    registry: TelemetryRegistry,
    listener: Any,
    labels: Optional[Mapping[str, str]] = None,
) -> None:
    """Scrape one :class:`~repro.net.transport.TcpListener`."""
    lbl = dict(labels or {})
    for attr, metric, help_ in (
        (
            "duplicates_suppressed",
            "neptune_listener_duplicates_suppressed_total",
            "Replayed frames suppressed by exactly-once dedup",
        ),
        ("gap_resets", "neptune_listener_gap_resets_total", "Connections severed on seq gap"),
        (
            "corruption_resets",
            "neptune_listener_corruption_resets_total",
            "Connections severed on checksum corruption",
        ),
        (
            "injected_resets",
            "neptune_listener_injected_resets_total",
            "Connections killed by fault injection",
        ),
    ):
        registry.counter(metric, lbl, help_).set_total(float(getattr(listener, attr, 0)))


def scrape_observer(observer: Any) -> None:
    """Scrape the observer's own facilities into its registry."""
    registry: TelemetryRegistry = observer.registry
    registry.counter(
        "neptune_timeline_events_total", None, "Runtime events recorded (incl. evicted)"
    ).set_total(float(observer.timeline.recorded))
    registry.gauge(
        "neptune_timeline_events_retained", None, "Events currently in the ring"
    ).set(float(len(observer.timeline)))
    registry.counter(
        "neptune_timeline_dropped_total",
        None,
        "Events overwritten on ring wrap (diagnosis completeness)",
    ).set_total(float(getattr(observer.timeline, "dropped", 0)))
    registry.gauge(
        "neptune_trace_traces", None, "Distinct traces stored"
    ).set(float(len(observer.collector)))
    registry.counter(
        "neptune_trace_spans_dropped_total", None, "Spans dropped past the trace cap"
    ).set_total(float(observer.collector.dropped))
    profiler = getattr(observer, "profiler", None)
    if profiler is not None:
        # neptune_profile_* series ride every telemetry envelope for
        # free, and so does a sweep the sampler had to swallow.
        profiler.export(registry)
        error = profiler.take_error()
        if error is not None:
            observer.timeline.record(
                "internal", "error", site="profiler.sample", error=error
            )
