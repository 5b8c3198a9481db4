"""Root-cause correlation over the three signal stores (`repro doctor`).

The health engine says *what* broke (an SLO breach episode on the
timeline); this module says *why*, by correlating that episode against
the causal events the runtime now emits:

- ``flowcontrol.gate_closed`` / ``gate_opened`` — a watermark gate
  episode names the operator whose inbound buffer filled and the
  upstream operators the gate throttled, so cascades reconstruct
  transitively (sink stalls → relay throttled → source throttled).
- ``chaos.*`` — injected faults (node kills, partitions, severed
  connections) stamped on the same clock as the breach events.
- ``transport.send_stall`` / ``reconnect`` / ``link_failed`` — the
  TCP-level face of backpressure and recovery.
- ``neptune_profile_*`` — the sampling profiler's per-operator CPU
  series: a breach with no gate episode, an execute-dominant stage,
  and one operator holding most of the sampled CPU is diagnosed
  **compute_bound**, naming the operator, its worker, and its hottest
  frame.

One advisory needs no breach: ``chained_off_cpu`` names a chained
receiver (``neptune_chain_receiver_*`` series) whose batches took more
than half again their thread-CPU time - it waits off the CPU, on its
sender's thread - and says which link to declare ``chain=False``.

Every candidate cause is scored by temporal overlap/proximity with the
breach episode and by how direct the mechanism is (injected fault >
watermark cascade > transport stall); the ranked list plus the
dominant traced stage inside the episode is the diagnosis.  Input is
a telemetry envelope (:func:`repro.observe.export.snapshot` of an
observer, or :meth:`~repro.observe.collector.ClusterCollector.snapshot`
of a merged one), so the same code runs live and post-hoc
(``--from-dump``).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.observe.export import snapshot as observer_snapshot
from repro.observe.observer import RuntimeObserver

__all__ = ["DOCTOR_SCHEMA", "diagnose", "diagnose_observer", "render_report"]

DOCTOR_SCHEMA = "neptune-doctor/1"

#: How far before a breach's onset a cause may lie and still count (s).
_LOOKBACK = 30.0

#: A chained receiver is advised off its sender's thread when its own
#: batches' wall time exceeds their thread-CPU time by this factor, and
#: by enough seconds to be more than clock noise.
_OFF_CPU_RATIO = 1.5
_OFF_CPU_FLOOR = 0.05

#: One operator must hold at least this share of all sampled operator
#: CPU for a breach to be attributed as compute-bound.
_COMPUTE_SHARE = 0.6

_INSTANCE_SUFFIX = re.compile(r"\[\d+\]\Z")
_WORKER_PREFIX = re.compile(r"\Aw(\d+):")


def _bare(operator: str) -> str:
    """``w1:sink[0]`` → ``sink`` (worker-qualified instance labels →
    graph operator names).  Distributed workers label gate events with
    their ``wN:`` prefix so per-worker episodes stay distinct on the
    timeline; cause attribution works on graph names."""
    return _INSTANCE_SUFFIX.sub("", _WORKER_PREFIX.sub("", operator))


def _worker_of(operator: str) -> Optional[str]:
    """The worker id embedded in a ``wN:``-prefixed label, if any."""
    match = _WORKER_PREFIX.match(operator)
    return match.group(1) if match else None


def _f(value: Any, default: float = 0.0) -> float:
    return float(value) if isinstance(value, (int, float)) else default


class _Episode:
    """A half-open [start, end) span of some condition on the timeline."""

    __slots__ = ("start", "end", "attrs")

    def __init__(self, start: float, attrs: Dict[str, Any]) -> None:
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    def overlap(self, start: float, end: float) -> float:
        """Seconds of overlap with [start, end]."""
        mine = self.end if self.end is not None else end
        return max(0.0, min(mine, end) - max(self.start, start))


def _pair_episodes(
    events: List[Dict[str, Any]],
    open_name: str,
    close_name: str,
    key: str,
) -> List[_Episode]:
    """Pair open/close events (matched on ``attrs[key]``) into episodes."""
    episodes: List[_Episode] = []
    pending: Dict[str, List[_Episode]] = {}
    for event in events:
        attrs = event.get("attrs") or {}
        ident = str(attrs.get(key, ""))
        if event["name"] == open_name:
            ep = _Episode(_f(event.get("ts")), dict(attrs))
            episodes.append(ep)
            pending.setdefault(ident, []).append(ep)
        elif event["name"] == close_name:
            stack = pending.get(ident)
            if stack:
                ep = stack.pop(0)
                ep.end = _f(event.get("ts"))
                # The closing event carries the episode's summary
                # attrs (duration, final value) — keep both sides.
                for k, v in attrs.items():
                    ep.attrs.setdefault(k, v)
    return episodes


def _gate_cascades(gates: List[_Episode]) -> Dict[str, Set[str]]:
    """Gated operator → transitively affected upstream operators.

    ``gate_closed`` on O carries ``throttles=[upstream of O]``: those
    writers block, their own inbound buffers fill, *their* gates close
    in turn.  The closure follows throttle edges until a fixed point,
    so the most-downstream stalled buffer is blamed for the whole
    cascade.
    """
    throttled_by: Dict[str, Set[str]] = {}
    for gate in gates:
        op = _bare(str(gate.attrs.get("operator", "")))
        targets = {
            _bare(str(t)) for t in gate.attrs.get("throttles", []) or []
        }
        throttled_by.setdefault(op, set()).update(targets)
    cascades: Dict[str, Set[str]] = {}
    for op in throttled_by:
        affected = {op}
        frontier = list(throttled_by.get(op, ()))
        while frontier:
            nxt = frontier.pop()
            if nxt in affected:
                continue
            affected.add(nxt)
            frontier.extend(throttled_by.get(nxt, ()))
        cascades[op] = affected
    return cascades


def _dominant_stage(
    spans: List[Mapping[str, Any]],
    start: float,
    end: float,
    operator: Optional[str],
) -> Optional[Dict[str, Any]]:
    """The stage dominating traced time inside [start, end]."""

    def totals(only_op: Optional[str]) -> Dict[str, float]:
        acc: Dict[str, float] = {}
        for span in spans:
            s, e = _f(span.get("start")), _f(span.get("end"))
            if e < start - _LOOKBACK or s > end:
                continue
            if only_op is not None and _bare(str(span.get("operator", ""))) != only_op:
                continue
            stage = str(span.get("stage", ""))
            acc[stage] = acc.get(stage, 0.0) + max(0.0, e - s)
        return acc

    by_stage = totals(operator) if operator is not None else {}
    if not by_stage:
        by_stage = totals(None)
    total = sum(by_stage.values())
    if total <= 0.0:
        return None
    stage, seconds = max(by_stage.items(), key=lambda kv: (kv[1], kv[0]))
    return {"stage": stage, "seconds": seconds, "fraction": seconds / total}


def _profile_attribution(snap: Mapping[str, Any]) -> Dict[str, Any]:
    """Per-operator sampled CPU from the ``neptune_profile_*`` series
    (one per (worker, operator): the merge keeps each series once)."""
    by_op: Dict[str, float] = {}
    hottest: Dict[str, Tuple[float, Optional[str]]] = {}  # its busiest worker
    frames: List[Tuple[str, str, str, float]] = []
    for series in snap.get("series", []) or []:
        name = series.get("name")
        labels = series.get("labels") or {}
        worker = str(labels.get("worker", ""))
        operator = str(labels.get("operator", ""))
        value = _f(series.get("value"))
        if (
            name == "neptune_profile_cpu_seconds_total"
            and labels.get("kind") == "operator"
        ):
            by_op[operator] = by_op.get(operator, 0.0) + value
            if value >= hottest.get(operator, (-1.0, None))[0]:
                hottest[operator] = (value, worker or None)
        elif name == "neptune_profile_top_frame_samples_total":
            frames.append((operator, worker, str(labels.get("frame", "")), value))
    worker_of = {op: worker for op, (_cpu, worker) in hottest.items()}
    frame_of: Dict[str, str] = {}
    frame_samples: Dict[str, float] = {}
    for operator, worker, frame, count in frames:
        hot = worker_of.get(operator)
        if hot is not None and worker and worker != hot:
            continue
        if count > frame_samples.get(operator, 0.0):
            frame_samples[operator] = count
            frame_of[operator] = frame
    return {
        "total": sum(by_op.values()),
        "by_op": by_op,
        "worker_of": worker_of,
        "frame_of": frame_of,
    }


def _chained_off_cpu(snap: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Advisories for chained receivers that wait off the CPU."""
    seconds: Dict[Tuple[str, str], Dict[str, float]] = {}
    for series in snap.get("series", []) or []:
        name = str(series.get("name", ""))
        if not name.startswith("neptune_chain_receiver_"):
            continue
        labels = series.get("labels") or {}
        key = (str(labels.get("worker", "")), str(labels.get("leg", "")))
        kind = "wall" if "_wall_" in name else "cpu"
        seconds.setdefault(key, {})[kind] = _f(series.get("value"))
    advisories: List[Dict[str, Any]] = []
    for (worker, leg), took in sorted(seconds.items()):
        wall, cpu = took.get("wall", 0.0), took.get("cpu", 0.0)
        if wall - cpu < _OFF_CPU_FLOOR or wall <= _OFF_CPU_RATIO * cpu:
            continue
        sender, _, rest = leg.partition("->")
        receiver = _bare(rest.split("/", 1)[0])
        advisories.append(
            {
                "type": "chained_off_cpu",
                "operator": receiver,
                "worker": worker or None,
                "leg": leg,
                "wall_seconds": wall,
                "cpu_seconds": cpu,
                "detail": (
                    f"chained operator {receiver!r} spent {wall:.3f}s in its "
                    f"batches for {cpu:.3f}s of CPU, on the thread of "
                    f"{_bare(sender)!r}, which waited with it"
                ),
                "fix": (
                    f"declare chain=False on the link {_bare(sender)!r}->"
                    f"{receiver!r} so that it waits on a thread of its own"
                ),
            }
        )
    return advisories


def diagnose(snap: Mapping[str, Any], max_causes: int = 3) -> Dict[str, Any]:
    """Correlate a snapshot into a ranked root-cause report.

    ``snap`` is a telemetry envelope (also what ``repro doctor --dump``
    writes).  The report is JSON-friendly; :func:`render_report`
    renders the human form.
    """
    events = sorted(
        (dict(e) for e in snap.get("events", [])),
        key=lambda e: (_f(e.get("ts")), str(e.get("category")), str(e.get("name"))),
    )
    horizon = _f(events[-1].get("ts")) if events else 0.0
    health_events = [e for e in events if e.get("category") == "health"]
    breaches = _pair_episodes(health_events, "slo_breach", "slo_recover", "slo")
    gate_events = [e for e in events if e.get("category") == "flowcontrol"]
    gates = _pair_episodes(gate_events, "gate_closed", "gate_opened", "operator")
    cascades = _gate_cascades(gates)
    # A gate whose operator is itself throttled by another gate is a
    # victim of the cascade, not its root: the most-downstream stalled
    # buffer (never anyone's throttle target) must outrank it.
    secondary = {
        _bare(str(t))
        for gate in gates
        for t in gate.attrs.get("throttles", []) or []
    }
    chaos = [e for e in events if e.get("category") == "chaos"]
    transport = [
        e
        for e in events
        if e.get("category") == "transport"
        and e.get("name") in ("send_stall", "reconnect", "link_failed")
    ]
    spans: List[Mapping[str, Any]] = list(snap.get("spans") or [])
    profile = _profile_attribution(snap)

    episodes: List[Dict[str, Any]] = []
    for breach in breaches:
        b_start = breach.start
        b_end = breach.end if breach.end is not None else horizon
        b_op = breach.attrs.get("operator")
        b_op_bare = _bare(str(b_op)) if b_op else None
        causes: List[Dict[str, Any]] = []
        for event in chaos:
            ts = _f(event.get("ts"))
            if ts > b_end or ts < b_start - _LOOKBACK:
                continue
            lead = max(0.0, b_start - ts)
            attrs = event.get("attrs") or {}
            target = str(attrs.get("target", ""))
            causes.append(
                {
                    "type": "injected_fault",
                    "operator": target,
                    "worker": attrs.get("worker"),
                    "score": 3.0 / (1.0 + lead),
                    "detail": f"injected {event.get('name')} on {target!r} "
                    f"at t={ts:.3f}s ({lead:.3f}s before breach)",
                }
            )
        for gate in gates:
            overlap = gate.overlap(b_start - _LOOKBACK, b_end)
            if overlap <= 0.0:
                continue
            gated_raw = str(gate.attrs.get("operator", ""))
            gated_op = _bare(gated_raw)
            gate_worker = _worker_of(gated_raw) or gate.attrs.get("worker")
            affected = cascades.get(gated_op, {gated_op})
            if b_op_bare is not None and b_op_bare not in affected:
                continue
            duration = (
                (gate.end - gate.start) if gate.end is not None else horizon - gate.start
            )
            throttled = sorted(
                {_bare(str(t)) for t in gate.attrs.get("throttles", []) or []}
            )
            window = b_end - b_start
            frac = min(1.0, overlap / window) if window > 0 else 1.0
            where = f" (worker {gate_worker})" if gate_worker is not None else ""
            detail = (
                f"inbound buffer of {gated_op!r}{where} >= high watermark "
                f"for {duration:.3f}s"
            )
            if throttled:
                detail += " -> throttled " + ", ".join(repr(t) for t in throttled)
            score = 2.0 + frac
            if gated_op in secondary:
                score = 1.0 + frac
                detail += " (itself throttled downstream)"
            causes.append(
                {
                    "type": "backpressure_cascade",
                    "operator": gated_op,
                    "worker": gate_worker,
                    "score": score,
                    "detail": detail,
                }
            )
        for event in transport:
            ts = _f(event.get("ts"))
            if ts > b_end or ts < b_start - _LOOKBACK:
                continue
            attrs = event.get("attrs") or {}
            endpoint = str(attrs.get("endpoint", ""))
            lead = max(0.0, b_start - ts)
            causes.append(
                {
                    "type": "transport",
                    "operator": endpoint,
                    "worker": attrs.get("worker"),
                    "score": 1.5 / (1.0 + lead),
                    "detail": f"transport {event.get('name')} on {endpoint} "
                    f"at t={ts:.3f}s",
                }
            )
        # Compute-bound attribution: queueing explanations always win
        # (a gate episode anywhere near the breach suppresses this),
        # but a breach with *no* gate and one operator monopolizing the
        # sampled CPU is a hot operator, not a stalled one.  The stage
        # check is a suppressor, not a requirement: emit-side dominance
        # (serialize/enqueue/flush) says the time went into batching or
        # a blocked emit, while "execute" is the compute itself and
        # "wire"/"deserialize" is where a compute-bound *receiver's*
        # backlog accrues (wire spans close at drain time).
        gated_nearby = any(
            gate.overlap(b_start - _LOOKBACK, b_end) > 0.0 for gate in gates
        )
        if profile["total"] > 0.0 and not gated_nearby:
            top_prof_op, op_cpu = max(
                profile["by_op"].items(), key=lambda kv: (kv[1], kv[0])
            )
            share = op_cpu / profile["total"]
            if share >= _COMPUTE_SHARE:
                dom = _dominant_stage(spans, b_start, b_end, top_prof_op)
                if dom is None or dom.get("stage") not in (
                    "serialize",
                    "enqueue",
                    "flush",
                ):
                    worker = profile["worker_of"].get(top_prof_op)
                    detail = (
                        f"operator {top_prof_op!r} held {share * 100.0:.0f}% of "
                        f"sampled CPU ({op_cpu:.2f}s) with no gate episode"
                    )
                    frame = profile["frame_of"].get(top_prof_op)
                    if frame:
                        detail += f"; top frame {frame}"
                    causes.append(
                        {
                            "type": "compute_bound",
                            "operator": top_prof_op,
                            "worker": worker,
                            "score": 2.0 + share,
                            "detail": detail,
                        }
                    )
        causes.sort(key=lambda c: (-float(c["score"]), str(c["operator"])))
        causes = causes[:max_causes]
        for rank, cause in enumerate(causes, start=1):
            cause["rank"] = rank
        top_op = str(causes[0]["operator"]) if causes else None
        episodes.append(
            {
                "slo": str(breach.attrs.get("slo", "")),
                "kind": breach.attrs.get("kind"),
                "operator": b_op,
                "observed_on_worker": breach.attrs.get("worker"),
                "value": breach.attrs.get("value"),
                "threshold": breach.attrs.get("threshold"),
                "start": b_start,
                "end": breach.end,
                "duration": (breach.end - b_start) if breach.end is not None else None,
                "causes": causes,
                "dominant_stage": _dominant_stage(spans, b_start, b_end, top_op),
            }
        )

    warnings: List[str] = []
    dropped = int(_f(snap.get("events_dropped", 0)))
    if dropped > 0:
        warnings.append(
            f"timeline dropped {dropped} events on ring wrap: early causes "
            "may be missing and this diagnosis may be incomplete"
        )
    dropped_spans = int(_f(snap.get("spans_dropped", 0)))
    if dropped_spans > 0:
        warnings.append(
            f"trace collector dropped {dropped_spans} spans past its cap: "
            "stage attribution may under-count"
        )

    root_cause: Optional[Dict[str, Any]] = None
    ranked = [
        (float(c["score"]), ep["slo"], c)
        for ep in episodes
        for c in ep["causes"]
    ]
    if ranked:
        ranked.sort(key=lambda item: (-item[0], item[1]))
        root_cause = dict(ranked[0][2])

    return {
        "schema": DOCTOR_SCHEMA,
        "healthy": not episodes,
        "breaches": episodes,
        "root_cause": root_cause,
        "gate_episodes": len(gates),
        "chaos_events": len(chaos),
        "advisories": _chained_off_cpu(snap),
        "warnings": warnings,
        # What a merged envelope was merged from: per worker
        # incarnation, why it last reported (SIGKILLed: "periodic").
        "sources": list(snap.get("sources") or []),
    }


def diagnose_observer(observer: RuntimeObserver, max_causes: int = 3) -> Dict[str, Any]:
    """Diagnose a live observer (snapshot + :func:`diagnose`)."""
    return diagnose(observer_snapshot(observer), max_causes=max_causes)


def render_report(report: Mapping[str, Any]) -> str:
    """Human rendering of a :func:`diagnose` report."""
    lines: List[str] = []
    breaches = list(report.get("breaches", []))
    if not breaches:
        lines.append("repro doctor: no SLO breach episodes on the timeline")
    else:
        lines.append(f"repro doctor: {len(breaches)} SLO breach episode(s)")
    for ep in breaches:
        duration = ep.get("duration")
        dur_text = f"{duration:.3f}s" if isinstance(duration, float) else "ongoing"
        value = ep.get("value")
        threshold = ep.get("threshold")
        vt = ""
        if isinstance(value, (int, float)) and isinstance(threshold, (int, float)):
            vt = f" (value {value:.4g} vs threshold {threshold:.4g})"
        lines.append(
            f"breach of {ep.get('slo')} at t={_f(ep.get('start')):.3f}s, "
            f"{dur_text}{vt}:"
        )
        causes = ep.get("causes", [])
        if not causes:
            lines.append("  no correlated cause on the timeline")
        for cause in causes:
            lines.append(
                f"  {cause.get('rank')}. [{cause.get('type')}] "
                f"{cause.get('detail')} (score {_f(cause.get('score')):.2f})"
            )
        stage = ep.get("dominant_stage")
        if stage:
            lines.append(
                f"  dominant span: {stage.get('stage')} "
                f"({100.0 * _f(stage.get('fraction')):.0f}% of traced time)"
            )
    root = report.get("root_cause")
    if root:
        worker = root.get("worker")
        where = f" on worker {worker}" if worker is not None else ""
        lines.append(
            f"root cause: [{root.get('type')}] {root.get('operator')!r}"
            f"{where} — {root.get('detail')}"
        )
    for advisory in report.get("advisories") or []:
        lines.append(
            f"advisory: [{advisory.get('type')}] {advisory.get('detail')}; "
            f"{advisory.get('fix')}"
        )
    for src in report.get("sources") or []:
        if src.get("worker") is not None:  # else: not merged from workers
            lines.append(
                f"source: worker {src.get('worker')} incarnation "
                f"{src.get('incarnation')}, last envelope {src.get('reason')!r}"
            )
    for warning in report.get("warnings", []):
        lines.append(f"warning: {warning}")
    return "\n".join(lines)
