"""Hand-built telemetry envelopes: the one place tests spell the
``neptune-telemetry/1`` field names (DESIGN.md §14) outside the builder
itself.  A test that wants a doctor input or an absorbable delta calls
:func:`envelope`; nothing else writes the dict by hand."""

from repro.observe.collector import TELEMETRY_SCHEMA


def event(ts, category, name, **attrs):
    """One timeline event as an envelope carries it."""
    return {"ts": ts, "category": category, "name": name, "attrs": attrs}


def envelope(events=(), series=(), spans=(), **header):
    """An envelope with the given sections; ``header`` overrides any
    other field (``worker``, ``seq``, ``monitors``, drop counters…)."""
    out = {
        "schema": TELEMETRY_SCHEMA,
        "worker": None,
        "incarnation": 0,
        "seq": 1,
        "ts": 0.0,
        "reason": "test",
        "series": list(series),
        "spans": list(spans),
        "events": list(events),
        "monitors": [],
        "profile": None,
        "events_dropped": 0,
        "spans_dropped": 0,
    }
    out.update(header)
    return out
