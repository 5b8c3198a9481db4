"""Human-readable reports: per-stage latency breakdown, timeline dump.

The breakdown's "coverage" column is the honesty check the CLI's
acceptance rides on: stages are contiguous by construction, so per
trace the stage-duration sum equals the measured end-to-end latency
(max span end − min span start) up to float rounding.  A coverage far
from 100% means a hop was lost (e.g. the trace cap was hit), and the
table says so instead of silently under-reporting.
"""

from __future__ import annotations

from typing import Dict, List

from repro.observe.timeline import EventTimeline
from repro.observe.tracing import STAGES, TraceCollector

__all__ = [
    "format_breakdown",
    "format_timeline",
    "stage_stats",
    "trace_summaries",
]


def _percentile(sorted_values: List[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def stage_stats(collector: TraceCollector) -> Dict[str, Dict[str, float]]:
    """Per-stage duration statistics (seconds) across all spans."""
    by_stage: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    for span in collector.all_spans():
        by_stage.setdefault(span.stage, []).append(span.duration)
    out: Dict[str, Dict[str, float]] = {}
    for stage, durations in by_stage.items():
        if not durations:
            continue
        durations.sort()
        out[stage] = {
            "count": float(len(durations)),
            "mean": sum(durations) / len(durations),
            "p50": _percentile(durations, 50.0),
            "p95": _percentile(durations, 95.0),
            "max": durations[-1],
            "total": sum(durations),
        }
    return out


def trace_summaries(collector: TraceCollector) -> List[Dict[str, float]]:
    """Per-trace totals: hop count, stage sum, end-to-end, coverage."""
    out: List[Dict[str, float]] = []
    for tid, spans in sorted(collector.traces().items()):
        stage_sum = sum(s.duration for s in spans)
        e2e = max(s.end for s in spans) - min(s.start for s in spans)
        out.append(
            {
                "trace_id": float(tid),
                "hops": float(max(s.hop for s in spans) + 1),
                "spans": float(len(spans)),
                "stage_sum": stage_sum,
                "end_to_end": e2e,
                "coverage": stage_sum / e2e if e2e > 0 else 1.0,
            }
        )
    return out


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:9.3f}"


def format_breakdown(collector: TraceCollector) -> str:
    """The ``repro trace`` per-stage latency breakdown table."""
    stats = stage_stats(collector)
    summaries = trace_summaries(collector)
    if not stats or not summaries:
        return "no traces collected (is sampling enabled?)"
    grand_total = sum(s["total"] for s in stats.values())
    lines = [
        "per-stage latency breakdown (ms)",
        f"{'stage':<12} {'count':>7} {'mean':>9} {'p50':>9} {'p95':>9} {'max':>9} {'share':>7}",
    ]
    for stage in STAGES:
        s = stats.get(stage)
        if s is None:
            continue
        share = s["total"] / grand_total if grand_total > 0 else 0.0
        lines.append(
            f"{stage:<12} {int(s['count']):>7} {_ms(s['mean'])} {_ms(s['p50'])} "
            f"{_ms(s['p95'])} {_ms(s['max'])} {share * 100:>6.1f}%"
        )
    n = len(summaries)
    mean_e2e = sum(s["end_to_end"] for s in summaries) / n
    mean_sum = sum(s["stage_sum"] for s in summaries) / n
    mean_cov = sum(s["coverage"] for s in summaries) / n
    mean_hops = sum(s["hops"] for s in summaries) / n
    lines.append("")
    lines.append(
        f"traces: {n}  mean hops: {mean_hops:.1f}  "
        f"mean end-to-end: {mean_e2e * 1e3:.3f}ms  "
        f"mean stage sum: {mean_sum * 1e3:.3f}ms  "
        f"coverage: {mean_cov * 100:.1f}%"
    )
    return "\n".join(lines)


def format_timeline(timeline: EventTimeline, limit: int = 50) -> str:
    """The most recent ``limit`` events plus per-kind totals."""
    events = timeline.snapshot()
    counts = timeline.counts()
    lines = ["event timeline"]
    for key, n in sorted(counts.items()):
        lines.append(f"  {key:<32} x{n}")
    shown = events[-limit:]
    if shown:
        lines.append("")
        base = shown[0].ts
        for event in shown:
            attrs = " ".join(f"{k}={v}" for k, v in sorted(event.attrs.items()))
            lines.append(
                f"  +{event.ts - base:9.4f}s {event.category}.{event.name} {attrs}".rstrip()
            )
    if len(events) > limit:
        lines.append(f"  ... ({len(events) - limit} earlier events not shown)")
    if timeline.evicted:
        lines.append(f"  ({timeline.evicted} older events evicted from the ring)")
    return "\n".join(lines)
