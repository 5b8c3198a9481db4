"""Prometheus text-format conformance: escaping, name grammar, and the
timeline drop accounting the doctor's completeness warning rests on."""

import re

import pytest

from repro.observe import EventTimeline, RuntimeObserver, TelemetryRegistry
from repro.observe import bridge
from repro.observe.export import snapshot, to_prometheus

#: Text format 0.0.4 grammar (what a scraper's parser enforces).
METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\")*\})? \S+$"
)


class TestLabelValueEscaping:
    def test_backslash_quote_newline_escaped(self):
        reg = TelemetryRegistry()
        nasty = 'a\\b"c\nd'
        reg.counter("neptune_test_total", {"op": nasty}, "help").inc()
        text = to_prometheus(reg)
        assert 'op="a\\\\b\\"c\\nd"' in text
        # The raw forms must be gone: an unescaped backslash, quote, or
        # newline inside a label value corrupts the exposition stream.
        assert '"a\\b"' not in text
        assert "\nd\"" not in text

    def test_every_sample_line_parses(self):
        reg = TelemetryRegistry()
        reg.counter("neptune_a_total", {"k": 'x"y'}, "h").inc()
        reg.gauge("neptune_b", {"k": "p\\q", "op": "line1\nline2"}, "h").set(2)
        reg.histogram("neptune_c_seconds", {"k": "plain"}, "h").observe(0.5)
        for line in to_prometheus(reg).splitlines():
            if line.startswith("#") or not line:
                continue
            assert SAMPLE_LINE.match(line), f"unparseable sample line: {line!r}"


class TestHelpEscaping:
    def test_backslash_and_newline_escaped_quote_literal(self):
        reg = TelemetryRegistry()
        reg.counter("neptune_test_total", None, 'back\\slash "quoted"\nnext').inc()
        help_line = next(
            l for l in to_prometheus(reg).splitlines() if l.startswith("# HELP")
        )
        assert "back\\\\slash" in help_line
        assert "\\n" in help_line
        # Per the format spec HELP text keeps double quotes literal.
        assert '"quoted"' in help_line
        assert "\n" not in help_line.replace("\\n", "")


class TestNameValidation:
    def test_invalid_metric_name_rejected(self):
        reg = TelemetryRegistry()
        with pytest.raises(ValueError, match="metric name"):
            reg.counter("neptune-bad-total", None, "h")
        with pytest.raises(ValueError, match="metric name"):
            reg.gauge("0starts_with_digit", None, "h")

    def test_colons_and_underscores_allowed(self):
        reg = TelemetryRegistry()
        reg.counter("neptune:job:packets_total", None, "h").inc()
        assert "neptune:job:packets_total 1" in to_prometheus(reg)

    def test_invalid_label_name_rejected(self):
        reg = TelemetryRegistry()
        with pytest.raises(ValueError, match="label name"):
            reg.gauge("neptune_g", {"bad-label": "v"}, "h")

    def test_exported_names_conform(self):
        # Meta-check: everything the observer self-scrape exports obeys
        # the grammar (guards future metric additions).
        obs = RuntimeObserver()
        obs.event("runtime", "batch_executed", operator="relay[0]")
        bridge.scrape_observer(obs)
        for sample in obs.registry.collect():
            assert METRIC_NAME.match(sample.name), sample.name


class TestTimelineDropAccounting:
    def test_ring_wrap_counts_drops(self):
        tl = EventTimeline(capacity=4)
        for i in range(7):
            tl.record("t", "e", i=i)
        assert tl.dropped == 3
        assert tl.evicted == 3
        assert len(tl) == 4

    def test_within_capacity_drops_zero(self):
        tl = EventTimeline(capacity=8)
        for i in range(8):
            tl.record("t", "e", i=i)
        assert tl.dropped == 0

    def test_snapshot_and_scrape_carry_drops(self):
        obs = RuntimeObserver(timeline_capacity=2)
        for i in range(5):
            obs.event("t", "e", i=i)
        snap = snapshot(obs)
        assert snap["events_dropped"] == 3
        bridge.scrape_observer(obs)
        text = to_prometheus(obs.registry)
        assert "neptune_timeline_dropped_total 3" in text
