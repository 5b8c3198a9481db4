"""Exporters: Prometheus text exposition, and the telemetry envelope
as JSON — written (:func:`snapshot`) and read back
(:func:`load_snapshots`)."""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

from repro.observe.collector import TELEMETRY_SCHEMA, DeltaSource
from repro.observe.instruments import InstrumentSample, LabelsKey, TelemetryRegistry
from repro.observe.observer import RuntimeObserver

__all__ = ["load_snapshots", "snapshot", "to_prometheus"]


def _escape_label_value(value: str) -> str:
    """Escape a label value per text format 0.0.4: ``\\``, ``"``, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    """Escape HELP text: only ``\\`` and newline (quotes stay literal)."""
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _labels_text(labels: LabelsKey, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: TelemetryRegistry) -> str:
    """Render the registry in Prometheus text exposition format 0.0.4."""
    lines: List[str] = []
    announced: Dict[str, str] = {}
    for sample in registry.collect():
        if sample.name not in announced:
            if sample.help:
                lines.append(f"# HELP {sample.name} {_escape_help(sample.help)}")
            lines.append(f"# TYPE {sample.name} {sample.kind}")
            announced[sample.name] = sample.kind
        if sample.kind == "histogram":
            _render_histogram(lines, sample)
        else:
            lines.append(f"{sample.name}{_labels_text(sample.labels)} {_fmt(sample.value)}")
    return "\n".join(lines) + "\n" if lines else ""


def _render_histogram(lines: List[str], sample: InstrumentSample) -> None:
    hist = sample.histogram
    assert hist is not None
    for bound, cumulative in hist.cumulative_buckets():
        le = _labels_text(sample.labels, f'le="{_fmt(bound)}"')
        lines.append(f"{sample.name}_bucket{le} {cumulative}")
    base = _labels_text(sample.labels)
    lines.append(f"{sample.name}_sum{base} {_fmt(hist.sum)}")
    lines.append(f"{sample.name}_count{base} {hist.count}")


def snapshot(observer: RuntimeObserver) -> Dict[str, Any]:
    """``observer``'s telemetry envelope: what a worker answers to the
    ``snapshot`` control command and its flight recorder persists,
    built the same way for an observer that is nobody's shard (this
    process's runtime, a collector's merged view)."""
    return DeltaSource(observer).snapshot()


def load_snapshots(path: str) -> List[Dict[str, Any]]:
    """Every telemetry envelope at ``path``: the one reader of what
    ``--dump``, a flight recorder or a saved ``snapshot`` reply wrote.

    A directory yields the envelopes among its ``*.json`` files in name
    order, skipping what is not one (a flight directory also holds the
    half-written dumps of workers that died mid-write, and files that
    are somebody else's).  When nothing at ``path`` is an envelope,
    everything there is refused by name (``ValueError``): unreadable,
    another schema, an older one — there is no converter.
    """
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, n) for n in sorted(os.listdir(path))]
        files = [file for file in files if file.endswith(".json")]
    envelopes: List[Dict[str, Any]] = []
    refused: List[str] = []
    for file in files:
        try:
            with open(file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            schema = data.get("schema") if isinstance(data, dict) else None
        except (OSError, ValueError) as exc:
            schema = f"unreadable: {exc}"
        if schema == TELEMETRY_SCHEMA:
            envelopes.append(data)
        else:
            refused.append(f"{file} ({schema or 'no schema tag'})")
    if not envelopes:
        raise ValueError(
            f"no {TELEMETRY_SCHEMA} envelope at {path!r}"
            + (f": refused {', '.join(refused)}" if refused else "")
        )
    return envelopes
