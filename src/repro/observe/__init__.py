"""Unified observability for the NEPTUNE runtime.

The paper evaluates NEPTUNE on three end-to-end signals — throughput,
latency, bandwidth (§IV) — but attributes its wins to *internal*
mechanisms: batched scheduling, buffer flushes, watermark transitions,
selective compression.  ``repro.observe`` makes those mechanisms
visible without bespoke probes:

- :mod:`repro.observe.tracing` — causal packet tracing.  Trace ids are
  minted at sources (sampled), ride each packet through the outbound
  buffer, the frame header, the transport, and the downstream
  instance; every hop decomposes into contiguous timestamped stages
  (serialize → enqueue → flush → wire → deserialize → execute) whose
  durations tile the packet's end-to-end latency exactly.
- :mod:`repro.observe.instruments` — the unified telemetry registry: a
  named-instrument API (counter / gauge / histogram) with bounded
  memory that absorbs the ad-hoc counters scattered across
  ``core.metrics``, transport stats, flow-control watermark state,
  compression decisions, buffer occupancy, and object-pool hit rates.
- :mod:`repro.observe.timeline` — a ring-buffered structured event log
  (watermark crossings, flush-timer fires, batch executions,
  reconnects, chaos injections) under one schema.
- :mod:`repro.observe.export` — Prometheus text exposition, and the
  telemetry envelope as JSON, written and read back; ``repro trace`` /
  ``repro metrics`` CLI front-ends.
- :mod:`repro.observe.health` — the streaming health engine: online
  SLO monitors (breach/recover state machines over registry scans,
  exported as ``neptune_slo_*``) and the adaptive trace-sampling
  feedback controller.
- :mod:`repro.observe.doctor` — root-cause correlation: breach
  episodes ranked against backpressure cascades, injected faults, and
  transport stalls; the ``repro doctor`` CLI front-end.
- :mod:`repro.observe.policy` — the elasticity policy engine: a
  deterministic breach → reconfiguration decision table (retune the
  buffer bound, scale the thread pool, migrate an operator) over the
  health engine's transitions and the doctor's root cause, closing the
  SLO loop without a restart.
- :mod:`repro.observe.collector` — the telemetry envelope
  (``neptune-telemetry/1``): :class:`DeltaSource`, its one builder on
  every worker (polled deltas over the control channel, standing
  snapshots), and :class:`ClusterCollector`, its one merge
  (worker-labeled registry, cross-process trace stitching,
  cluster-scope HealthEngine) behind ``repro top`` / ``repro doctor
  --workers N`` — and, replaying envelopes read back from disk, behind
  ``--from-dump`` (a telemetry envelope or a directory of them).
- :mod:`repro.observe.flightrec` — the black-box flight recorder: the
  worker's envelope persisted atomically and periodically, so
  SIGKILLed workers leave a post-mortem.

Everything is opt-in: a runtime without a :class:`RuntimeObserver`
pays a single ``is None`` check on the hot paths, and an attached
observer with ``sample_every=0`` records no spans.
"""

from __future__ import annotations

from typing import Any

from repro.util.lazy import lazy_export

# Imported on first use: the runtime loads only the submodules it runs
# (``tracing``, ``owners``), not the whole plane.
_EXPORTS = {
    "ClusterCollector": "repro.observe.collector",
    "DeltaSource": "repro.observe.collector",
    "StitchedTrace": "repro.observe.collector",
    "stitch": "repro.observe.collector",
    "stitch_spans": "repro.observe.collector",
    "diagnose": "repro.observe.doctor",
    "diagnose_observer": "repro.observe.doctor",
    "render_report": "repro.observe.doctor",
    "load_snapshots": "repro.observe.export",
    "FlightRecorder": "repro.observe.flightrec",
    "SLO": "repro.observe.health",
    "AdaptiveSampler": "repro.observe.health",
    "HealthEngine": "repro.observe.health",
    "default_slos": "repro.observe.health",
    "graph_regions": "repro.observe.health",
    "Counter": "repro.observe.instruments",
    "Gauge": "repro.observe.instruments",
    "Histogram": "repro.observe.instruments",
    "TelemetryRegistry": "repro.observe.instruments",
    "RuntimeObserver": "repro.observe.observer",
    "PolicyConfig": "repro.observe.policy",
    "PolicyEngine": "repro.observe.policy",
    "ReconfigAction": "repro.observe.policy",
    "action_to_changes": "repro.observe.policy",
    "apply_action": "repro.observe.policy",
    "EventTimeline": "repro.observe.timeline",
    "RuntimeEvent": "repro.observe.timeline",
    "STAGES": "repro.observe.tracing",
    "SpanRecord": "repro.observe.tracing",
    "TraceCollector": "repro.observe.tracing",
    "TraceContext": "repro.observe.tracing",
    "TraceNote": "repro.observe.tracing",
    "Tracer": "repro.observe.tracing",
    "decode_notes": "repro.observe.tracing",
    "encode_notes": "repro.observe.tracing",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)
