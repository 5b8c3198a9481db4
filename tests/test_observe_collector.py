"""Unit tests for the telemetry envelope (tier-1, in-process).

Covers the one builder and the one merge without spawning processes:
envelope building (cursors, seq, the non-advancing snapshot), merge
idempotency under re-delivery and reordering (histogram series absorb
never-backwards, series last-writer by seq, spans dedup by identity,
events by ordinal), cross-worker trace stitching invariants (tiling:
zero gap, zero overlap), the flight recorder's atomic dumps, the one
reader, live = post-mortem, and the doctor's cross-worker cause
attribution.  The real-process versions live in
``tests/test_cluster_observe.py`` behind ``@pytest.mark.cluster``.
"""

import json
import math
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envelopes import envelope, event
from repro.core import NeptuneConfig, StreamProcessingGraph
from repro.core.control import RemoteDistributedJob
from repro.core.distributed import DistributedWorker, round_robin_plan
from repro.observe import (
    STAGES,
    ClusterCollector,
    DeltaSource,
    FlightRecorder,
    RuntimeObserver,
    SpanRecord,
    TelemetryRegistry,
    load_snapshots,
    stitch,
    stitch_spans,
)
from repro.observe.bridge import absorb_series, registry_series
from repro.observe.collector import TELEMETRY_SCHEMA
from repro.observe.doctor import diagnose, render_report
from repro.observe import health
from repro.observe.health import SLO
from repro.workloads import CollectingSink, CountingSource, RelayProcessor


# ---------------------------------------------------------------------------
# Histogram cumulative absorption (satellite 1)
# ---------------------------------------------------------------------------

def test_histogram_set_cumulative_and_replay_is_noop():
    reg = TelemetryRegistry()
    hist = reg.histogram("h", None, "test", buckets=(1.0, 2.0))
    hist.set_cumulative([1, 3], 4, 10.0)
    assert hist.count == 4
    assert hist.sum == 10.0
    assert hist.cumulative_buckets() == [(1.0, 1), (2.0, 3), (math.inf, 4)]
    # Replaying the same snapshot must not double-count.
    hist.set_cumulative([1, 3], 4, 10.0)
    assert hist.count == 4
    # An older snapshot (re-delivery out of order) is ignored.
    hist.set_cumulative([0, 1], 2, 3.0)
    assert hist.count == 4
    assert hist.cumulative_buckets() == [(1.0, 1), (2.0, 3), (math.inf, 4)]
    # A newer one advances.
    hist.set_cumulative([2, 5], 7, 20.0)
    assert hist.count == 7
    assert hist.cumulative_buckets() == [(1.0, 2), (2.0, 5), (math.inf, 7)]


def test_histogram_set_cumulative_rejects_bucket_mismatch():
    reg = TelemetryRegistry()
    hist = reg.histogram("h", None, "test", buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        hist.set_cumulative([1], 2, 3.0)


def test_series_histogram_round_trip_idempotent():
    """registry_series -> absorb_series carries histograms, and
    absorbing the same series twice changes nothing (satellite 1)."""
    src = TelemetryRegistry()
    hist = src.histogram("lat_seconds", {"operator": "x"}, "test")
    hist.observe(0.004)
    hist.observe(0.5)
    src.counter("c_total", {"operator": "x"}, "test").inc(5)
    series = registry_series(src, {"worker": "1"})
    kinds = {s["name"]: s["kind"] for s in series}
    assert kinds == {"lat_seconds": "histogram", "c_total": "counter"}

    dst = TelemetryRegistry()
    absorb_series(dst, series)
    absorb_series(dst, series)  # re-delivery
    out = {s.name: s for s in dst.collect()}
    assert dict(out["lat_seconds"].labels)["worker"] == "1"
    merged = out["lat_seconds"].histogram
    assert merged is not None
    assert merged.count == 2
    assert abs(merged.sum - 0.504) < 1e-9
    assert out["c_total"].value == 5.0


# ---------------------------------------------------------------------------
# DeltaSource
# ---------------------------------------------------------------------------

def _span(tid, hop, stage, start, end, op="src", worker=None):
    return SpanRecord(tid, hop, stage, start, end, op, worker=worker)


def test_delta_source_ships_each_span_and_event_once():
    obs = RuntimeObserver()
    obs.collector.add([_span(1, 0, "serialize", 0.0, 0.5)])
    obs.timeline.record("runtime", "started", graph="g")
    source = DeltaSource(obs, 3)

    d1 = source.collect()
    assert d1["schema"] == TELEMETRY_SCHEMA
    assert d1["worker"] == 3
    assert d1["seq"] == 1
    assert d1["reason"] == "collect" and d1["profile"] is None
    assert [s["stage"] for s in d1["spans"]] == ["serialize"]
    assert d1["spans"][0]["worker"] == "3"
    assert any(e["name"] == "started" for e in d1["events"])
    assert d1["series"], "series must not be empty after a collect"
    assert all(s["labels"].get("worker") == "3" for s in d1["series"])
    # Shipped span durations feed the per-stage histogram.
    assert any(
        s["name"] == "neptune_trace_stage_seconds"
        and s["labels"].get("stage") == "serialize"
        for s in d1["series"]
    )

    d2 = source.collect()
    assert d2["seq"] == 2
    assert d2["spans"] == []
    assert all(e["name"] != "started" for e in d2["events"])

    obs.collector.add([_span(1, 0, "enqueue", 0.5, 0.7)])
    d3 = source.collect()
    assert [s["stage"] for s in d3["spans"]] == ["enqueue"]

    info = source.info()
    assert info["collects"] == 3
    assert info["spans_shipped"] == 2
    assert info["last_collect_age"] is not None


def test_snapshot_shows_everything_and_advances_nothing():
    obs = RuntimeObserver()
    obs.collector.add([_span(1, 0, "serialize", 0.0, 0.5)])
    obs.timeline.record("runtime", "started")
    source = DeltaSource(obs, 3)
    first, again = source.snapshot(), source.snapshot(reason="request")
    for snap in (first, again):
        assert [s["stage"] for s in snap["spans"]] == ["serialize"]
        assert [(e["name"], e["n"]) for e in snap["events"]] == [("started", 1)]
        assert all(s["labels"].get("worker") == "3" for s in snap["series"])
    assert (first["seq"], again["seq"]) == (1, 2)  # one order for a replay
    assert (first["reason"], again["reason"]) == ("snapshot", "request")
    # Whatever a snapshot showed, the next collect still ships.
    delta = source.collect()
    assert [s["stage"] for s in delta["spans"]] == ["serialize"]
    assert [(e["name"], e["n"]) for e in delta["events"]] == [("started", 1)]
    # An observer that is nobody's shard labels nothing.
    local = DeltaSource(obs).snapshot(max_events=0, max_spans=0)
    assert local["worker"] is None and local["events"] == local["spans"] == []
    assert not any("worker" in s["labels"] for s in local["series"])


# ---------------------------------------------------------------------------
# ClusterCollector merge semantics
# ---------------------------------------------------------------------------

def test_collector_drops_stale_seq_redelivery():
    """Re-delivering the same delta must be a complete no-op."""
    obs = RuntimeObserver()
    obs.collector.add([_span(5, 0, "serialize", 0.0, 1.0)])
    obs.timeline.record("runtime", "started")
    source = DeltaSource(obs, 0)
    collector = ClusterCollector()
    delta = source.collect()

    assert collector.absorb(delta) is True
    assert collector.absorb(delta) is False  # same seq: stale
    assert collector.stale == 1 and collector.absorbed == 1
    assert len(collector.observer.collector.all_spans()) == 1
    assert len(collector.observer.timeline) == 1


def test_collector_dedups_spans_across_new_seq():
    """Ack-replay re-executes hops: same span identity under a fresh
    seq must not double-count, and histogram series must not move."""
    obs = RuntimeObserver()
    obs.collector.add([_span(5, 0, "serialize", 0.0, 1.0)])
    source = DeltaSource(obs, 0)
    collector = ClusterCollector()
    delta = source.collect()
    assert collector.absorb(delta)

    replay = dict(delta)
    replay["seq"] = delta["seq"] + 1  # a *new* message, same payload
    assert collector.absorb(replay) is True
    assert len(collector.observer.collector.all_spans()) == 1
    samples = {s.name: s for s in collector.observer.registry.collect()}
    stage_hist = samples["neptune_trace_stage_seconds"].histogram
    assert stage_hist is not None and stage_hist.count == 1


def test_collector_reset_worker_accepts_fresh_seq():
    obs = RuntimeObserver()
    source = DeltaSource(obs, 0)
    collector = ClusterCollector()
    assert collector.absorb(source.collect())  # seq 1
    assert collector.absorb(source.collect())  # seq 2

    restarted = DeltaSource(RuntimeObserver(), 0)  # fresh process: seq 1
    stale = restarted.collect()
    assert collector.absorb(stale) is False
    collector.reset_worker(0)
    restarted2 = DeltaSource(RuntimeObserver(), 0)
    assert collector.absorb(restarted2.collect()) is True


def test_incarnation_fence_drops_old_incarnation_after_restart():
    """Regression: a delta built by the *dead* incarnation — fetched
    before the kill, absorbed after restart_worker's reset — landed
    under the new worker label with a high seq, burying the fresh
    incarnation's restarted sequence forever."""
    obs = RuntimeObserver()
    source = DeltaSource(obs, 3, incarnation=0)
    collector = ClusterCollector()
    for _ in range(56):
        source.collect()
    in_flight = source.collect()  # seq 57, built just before the kill
    # Coordinator restarts worker 3 and arms the fence first.
    collector.reset_worker(3, incarnation=1)
    assert collector.absorb(in_flight) is False  # fenced, not absorbed
    assert collector.fenced == 1
    assert collector.stale == 0
    # The new incarnation's restarted sequence is accepted from seq 1.
    fresh = DeltaSource(RuntimeObserver(), 3, incarnation=1)
    assert collector.absorb(fresh.collect()) is True
    assert collector.absorb(fresh.collect()) is True


def test_incarnation_learned_from_first_delta_fences_regressions():
    """Without an explicit reset the collector learns the incarnation
    from the first delta and fences anything from a different one."""
    collector = ClusterCollector()
    new = DeltaSource(RuntimeObserver(), 0, incarnation=2)
    old = DeltaSource(RuntimeObserver(), 0, incarnation=1)
    for _ in range(9):
        old.collect()
    assert collector.absorb(new.collect()) is True  # learn incarnation 2
    assert collector.absorb(old.collect()) is False  # inc 1, seq 10: fenced
    assert collector.fenced == 1


def test_reset_without_incarnation_accepts_any_incarnation():
    """Back-compat: reset_worker with no incarnation clears the fence
    (in-process harnesses that never track restarts keep working)."""
    collector = ClusterCollector()
    a = DeltaSource(RuntimeObserver(), 0, incarnation=0)
    assert collector.absorb(a.collect())
    collector.reset_worker(0)
    b = DeltaSource(RuntimeObserver(), 0, incarnation=5)
    assert collector.absorb(b.collect()) is True


def test_collector_events_keep_origin_timestamp_and_worker():
    obs = RuntimeObserver()
    event = obs.timeline.record("chaos", "kill_worker", target="w1")
    source = DeltaSource(obs, 7)
    collector = ClusterCollector()
    collector.absorb(source.collect())
    merged = collector.observer.timeline.snapshot()
    assert len(merged) == 1
    assert merged[0].ts == event.ts
    assert merged[0].attrs["worker"] == "7"
    assert merged[0].attrs["target"] == "w1"


def test_poll_once_survives_fetch_failures():
    obs = RuntimeObserver()
    source = DeltaSource(obs, 0)
    collector = ClusterCollector()
    collector.attach(0, source.collect)

    def severed():
        raise OSError("control socket gone")

    collector.attach(1, severed)
    collector.attach(2, lambda: None)  # worker with no delta source
    assert collector.poll_once() == 1
    assert collector.fetch_errors == 1
    ages = collector.ages()
    assert ages[0] is not None and ages[1] is None and ages[2] is None
    status = collector.status()
    assert status["polls"] == 1 and status["absorbed"] == 1
    # Swallowed, never silently: counted by site, and on the timeline.
    assert status["fetch_errors"] == 1
    (error,) = collector.observer.timeline.snapshot("internal", "error")
    assert error.attrs["site"] == "collector.fetch"
    assert "control socket gone" in error.attrs["error"]


def test_collector_health_scans_merged_series(monkeypatch):
    """A cluster-scope SLO evaluates against worker-labeled series
    (subset label matching sums across workers)."""
    monkeypatch.setattr(health, "FOR_SCANS", 1)
    monkeypatch.setattr(health, "WARMUP_SCANS", 0)
    slo = SLO("relay.floor", "throughput_floor", 1e9, operator="relay")
    collector = ClusterCollector(slos=[slo])
    assert collector.health is not None

    def series_for(worker, total):
        reg = TelemetryRegistry()
        reg.counter(
            "neptune_operator_packets_in_total", {"operator": "relay"}, "t"
        ).inc(total)
        return registry_series(reg, {"worker": worker})

    collector.absorb(envelope(worker=0, series=series_for("0", 10)))
    collector.absorb(envelope(worker=1, series=series_for("1", 32)))
    collector.health.scan_once()  # first sighting primes the rate
    collector.health.scan_once()
    monitor = collector.health.monitors[0]
    # Rate computed over the summed 42 packets across both workers —
    # far below the absurd floor, so the monitor must be breaching.
    assert monitor.bad_scans >= 1


def test_worker_monitors_reported_per_worker():
    collector = ClusterCollector()
    collector.absorb(
        envelope(worker=2, monitors=[{"slo": "sink.p99_latency", "status": "breach"}])
    )
    monitors = collector.worker_monitors()
    assert monitors == [
        {"slo": "sink.p99_latency", "status": "breach", "worker": 2}
    ]


# ---------------------------------------------------------------------------
# Stitching invariants
# ---------------------------------------------------------------------------

def _tiled_spans(tid, n_hops, stage_len=1.0):
    spans, t = [], 0.0
    for hop in range(n_hops):
        for stage in STAGES:
            spans.append(
                _span(tid, hop, stage, t, t + stage_len, f"op{hop}", str(hop))
            )
            t += stage_len
    return spans


def test_stitched_trace_tiles_across_workers():
    trace = stitch_spans(9, _tiled_spans(9, 2))
    assert trace.complete
    assert trace.workers == ["0", "1"]
    assert trace.hops == 2
    assert trace.gap_seconds == 0.0
    assert trace.overlap_seconds == 0.0
    assert trace.duration == pytest.approx(12.0)
    d = trace.as_dict()
    assert d["complete"] and len(d["spans"]) == 12


def test_stitched_trace_detects_gaps_and_missing_hops():
    spans = _tiled_spans(4, 2)
    del spans[3]  # drop hop 0 "wire": incomplete + a gap
    trace = stitch_spans(4, spans)
    assert not trace.complete
    assert trace.gap_seconds > 0.0

    hop1_only = [s for s in _tiled_spans(6, 2) if s.hop == 1]
    trace2 = stitch_spans(6, hop1_only)
    assert not trace2.complete  # hops must be contiguous from 0


def test_stitch_collector_orders_by_trace_id():
    collector = ClusterCollector()
    obs_a = RuntimeObserver()
    obs_a.collector.add(_tiled_spans(11, 1))
    obs_b = RuntimeObserver()
    obs_b.collector.add(_tiled_spans(3, 1))
    collector.absorb(DeltaSource(obs_a, 0).collect())
    collector.absorb(DeltaSource(obs_b, 1).collect())
    stitched = collector.stitched()
    assert [t.trace_id for t in stitched] == [3, 11]
    assert stitch(collector.observer.collector)[0].trace_id == 3


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

def test_flight_recorder_dump_atomic_and_loadable(tmp_path):
    obs = RuntimeObserver()
    obs.timeline.record("runtime", "started")
    obs.collector.add([_span(1, 0, "serialize", 0.0, 0.5)])
    path = str(tmp_path / "flight-w0-i0.json")
    recorder = FlightRecorder(DeltaSource(obs, 0), path)
    assert recorder.dump("test") == path
    assert not os.path.exists(path + ".tmp"), "tmp file must be replaced"
    (dump,) = load_snapshots(path)
    assert dump["schema"] == TELEMETRY_SCHEMA
    assert dump["reason"] == "test"
    assert dump["seq"] == 1 and recorder.dumps == 1
    assert dump["spans"][0]["worker"] == "0"
    assert dump["events"][0]["name"] == "started"
    assert dump["series"], "instrument series must be present"
    # A later dump overwrites with fresh state, never appends.
    assert recorder.dump("periodic") == path
    assert load_snapshots(path)[0]["seq"] == 2


def test_flight_recorder_never_raises_on_bad_path(tmp_path):
    obs = RuntimeObserver()
    recorder = FlightRecorder(
        DeltaSource(obs), str(tmp_path / "no-such-dir" / "f.json")
    )
    assert recorder.dump("test") is None
    assert recorder.dump_errors == 1
    (error,) = obs.timeline.snapshot("internal", "error")
    assert error.attrs["site"] == "flightrec.write"


def test_flight_recorder_bounds_window(tmp_path):
    obs = RuntimeObserver()
    for i in range(20):
        obs.timeline.record("runtime", f"e{i}")
    obs.collector.add(_tiled_spans(1, 2))
    path = str(tmp_path / "flight.json")
    recorder = FlightRecorder(DeltaSource(obs, 0), path, max_events=5, max_spans=4)
    recorder.dump("test")
    (dump,) = load_snapshots(path)
    assert len(dump["events"]) == 5
    assert dump["events"][-1]["name"] == "e19"  # most recent kept
    assert dump["events"][-1]["n"] == 20  # ordinals survive the cut
    assert len(dump["spans"]) == 4
    # Most-recently-closed spans survive the cap.
    assert {s["hop"] for s in dump["spans"]} == {1}


def test_dump_carries_the_errors_building_it_swallowed(tmp_path):
    """A source whose job scrape raises still yields a dump, and the
    dump itself says so: the counter and the event are in it."""

    class TornDown:
        worker_id = 0

        @property
        def job(self):
            raise RuntimeError("runtime already torn down")

    obs = RuntimeObserver()
    path = str(tmp_path / "flight.json")
    recorder = FlightRecorder(DeltaSource(obs, 0, worker=TornDown()), path)
    assert recorder.dump("periodic") == path
    assert recorder.dump_errors == 0  # the dump itself went fine
    (dump,) = load_snapshots(path)
    (counter,) = [
        s for s in dump["series"] if s["name"] == "neptune_internal_errors_total"
    ]
    assert counter["labels"] == {"site": "source.scrape_worker", "worker": "0"}
    assert counter["value"] == 1.0
    (error,) = [e for e in dump["events"] if e["category"] == "internal"]
    assert error["name"] == "error"
    assert error["attrs"]["site"] == "source.scrape_worker"
    assert "torn down" in error["attrs"]["error"]


def test_replayed_flight_dumps_dedup_and_diagnose(tmp_path):
    def dump_for(worker, spans, reason):
        obs = RuntimeObserver()
        obs.collector.add(spans)
        obs.timeline.record("runtime", f"w{worker}-event")
        path = str(tmp_path / f"flight-w{worker}-i0.json")
        FlightRecorder(DeltaSource(obs, worker), path).dump(reason)

    tiled = _tiled_spans(7, 2)
    hop0, hop1 = tiled[:6], tiled[6:]
    # Overlapping windows: both workers persisted hop0's serialize span.
    dump_for(0, hop0, "periodic")
    dump_for(1, [hop0[0]] + hop1, "sigterm")
    # What a flight directory also holds: a dump torn mid-write, and
    # files that are somebody else's.
    (tmp_path / "flight-w2-i0.json").write_text('{"schema": "neptune-telem')
    (tmp_path / "state.json").write_text(json.dumps({"workers": []}))
    merged = ClusterCollector.replay(load_snapshots(str(tmp_path))).snapshot()
    assert [(s["worker"], s["reason"]) for s in merged["sources"]] == [
        (0, "periodic"),
        (1, "sigterm"),
    ]
    spans = [s for s in merged["spans"] if s["trace_id"] == 7]
    assert len(spans) == 12, "duplicate span must merge away"
    assert sorted((s["hop"], STAGES.index(s["stage"])) for s in spans) == [
        (h, i) for h in (0, 1) for i in range(len(STAGES))
    ]
    names = [e["name"] for e in merged["events"]]
    assert "w0-event" in names and "w1-event" in names
    # The merged envelope is directly diagnosable.
    report = diagnose(merged)
    assert report["schema"] == "neptune-doctor/1"
    assert report["healthy"]
    assert "worker 1 incarnation 0, last envelope 'sigterm'" in render_report(report)


def test_two_dumps_of_one_worker_replay_to_one_of_everything(tmp_path):
    """A periodic and an on-request dump of the same worker overlap in
    everything; replayed, every series appears once with the later
    value, and every span and event once."""
    obs = RuntimeObserver()
    packets = obs.registry.counter("neptune_x_packets_total", {"operator": "a"}, "t")
    packets.inc(5)
    obs.collector.add(_tiled_spans(3, 1))
    obs.timeline.record("runtime", "started")
    path = str(tmp_path / "flight-w0-i0.json")
    recorder = FlightRecorder(DeltaSource(obs, 0), path)
    recorder.dump("periodic")
    shutil.copy(path, str(tmp_path / "flight-w0-i0.kept.json"))
    packets.inc(2)
    obs.timeline.record("runtime", "later")
    recorder.dump("request")

    dumps = load_snapshots(str(tmp_path))
    assert sorted(d["reason"] for d in dumps) == ["periodic", "request"]
    merged = ClusterCollector.replay(dumps).snapshot()
    keys = [(s["name"], tuple(sorted(s["labels"].items()))) for s in merged["series"]]
    assert len(keys) == len(set(keys)), "a series came back twice"
    (value,) = [
        s["value"] for s in merged["series"] if s["name"] == "neptune_x_packets_total"
    ]
    assert value == 7.0
    assert len(merged["spans"]) == len(STAGES)
    assert [e["name"] for e in merged["events"]] == ["started", "later"]
    assert [s["reason"] for s in merged["sources"]] == ["request"]


def test_a_restarted_incarnation_keeps_its_predecessors_black_box(tmp_path):
    """One file per incarnation, one merge for both: the dead
    incarnation's spans and events are the post-mortem, not fenced."""
    from repro.cluster import ClusterCoordinator
    from repro.core.graph import descriptor_factory

    graph = StreamProcessingGraph("two-incarnations")
    ops = "repro.workloads.operators:"
    graph.add_source("source", descriptor_factory(ops + "CountingSource", total=10))
    graph.add_processor("sink", descriptor_factory(ops + "CollectingSink"))
    graph.link("source", "sink")
    coordinator = ClusterCoordinator(
        graph, n_workers=2, observe={"flight_dir": str(tmp_path)}
    )
    first = coordinator.handles[0].spec.observe["flight_path"]
    second = coordinator._observe_block(0, 1)["flight_path"]
    assert os.path.basename(first) == "flight-w0-i0.json"
    assert os.path.basename(second) == "flight-w0-i1.json"

    dead, fresh = RuntimeObserver(), RuntimeObserver()
    dead.collector.add(_tiled_spans(5, 1))
    dead.timeline.record("chaos", "node_killed", target="w0")
    fresh.timeline.record("runtime", "restarted")
    FlightRecorder(DeltaSource(dead, 0, incarnation=0), first).dump("periodic")
    for _ in range(3):  # the successor's recorder keeps running
        FlightRecorder(DeltaSource(fresh, 0, incarnation=1), second).dump("periodic")
    assert json.loads(open(first).read())["incarnation"] == 0  # still there

    collector = ClusterCollector.replay(load_snapshots(str(tmp_path)))
    assert collector.fenced == 0
    merged = collector.snapshot()
    assert [(s["worker"], s["incarnation"]) for s in merged["sources"]] == [
        (0, 0),
        (0, 1),
    ]
    assert len(merged["spans"]) == len(STAGES)
    assert {"node_killed", "restarted"} <= {e["name"] for e in merged["events"]}
    # Live, the same sequence is a restart: the coordinator arms the
    # fence, and from then on the dead incarnation is refused.
    assert collector.absorb(DeltaSource(dead, 0, incarnation=0).collect()) is False
    assert collector.fenced == 1


def test_load_snapshots_refuses_what_is_not_an_envelope_by_name(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="bad.json"):
        load_snapshots(str(bad))
    old = tmp_path / "old.json"  # the retired flight-dump schema: no converter
    old.write_text(json.dumps({"schema": "neptune-flight/1", "instruments": []}))
    with pytest.raises(ValueError, match=r"old\.json \(neptune-flight/1\)"):
        load_snapshots(str(old))
    with pytest.raises(ValueError, match="no schema tag"):
        load_snapshots(str(tmp_path))  # a directory of nothing but those
    with pytest.raises(ValueError, match=r"missing\.json \(unreadable"):
        load_snapshots(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# Live = post-mortem
# ---------------------------------------------------------------------------

def _registry_state(registry):
    state = {}
    for sample in registry.collect():
        hist = sample.histogram
        state[(sample.name, sample.labels)] = (
            sample.value if hist is None else (hist.count, hist.cumulative_buckets())
        )
    return state


def test_live_merge_equals_replayed_flight_dumps(tmp_path):
    """Two co-hosted workers on a traced relay, seen two ways: polled
    by a collector while they run, and replayed from the flight dumps
    they leave.  Same series, same stitched traces, same diagnosis."""
    graph = StreamProcessingGraph(
        "live-vs-postmortem",
        config=NeptuneConfig(buffer_capacity=512, buffer_max_delay=0.003),
    )
    delivered = []
    graph.add_source("source", lambda: CountingSource(total=300, payload_size=24))
    graph.add_processor("relay", RelayProcessor)
    graph.add_processor("sink", lambda: CollectingSink(delivered))
    graph.link("source", "relay").link("relay", "sink")
    plan = round_robin_plan(graph, 2)
    workers = [
        DistributedWorker(w, graph, plan, observer=RuntimeObserver(sample_every=7))
        for w in range(2)
    ]
    # A seeded incident: the sink's gate (worker 0) throttles the relay,
    # whose SLO breach is observed on worker 1.
    workers[0].observer.event(
        "flowcontrol", "gate_closed", operator="w0:sink[0]", throttles=["w1:relay[0]"]
    )
    workers[1].observer.event(
        "health", "slo_breach",
        slo="relay.p99_latency", kind="p99_latency", operator="relay",
        value=0.5, threshold=0.01,
    )
    sources = [DeltaSource(w.observer, w.worker_id, worker=w) for w in workers]
    recorders = [
        FlightRecorder(
            source,
            str(tmp_path / f"flight-w{source.worker_id}-i0.json"),
            max_events=1 << 16,
            max_spans=1 << 16,
        )
        for source in sources
    ]
    live = ClusterCollector()
    for source in sources:
        live.attach(source.worker_id, source.collect)

    def last_look():  # quiesced, not yet stopped: what the coordinator's hook sees
        live.poll_once()
        for recorder in recorders:
            assert recorder.dump("shutdown") is not None

    endpoints = {w.worker_id: w.address for w in workers}
    for w in workers:
        w.connect(endpoints)
    for w in workers:
        w.start()
    job = RemoteDistributedJob(workers)
    job.pre_stop_hooks.append(last_look)
    live.poll_once()  # mid-run: the live view is built from many deltas
    assert job.await_completion(timeout=60.0)
    assert job.hook_errors == [] and sorted(delivered) == list(range(300))
    assert live.polls >= 2

    replayed = ClusterCollector.replay(load_snapshots(str(tmp_path)))
    assert _registry_state(replayed.observer.registry) == _registry_state(
        live.observer.registry
    )
    assert live.fetch_errors == 0
    traces = live.stitched()
    assert len(traces) == 300 // 7
    for trace in traces:
        assert trace.complete and trace.workers == ["0", "1"]
        assert trace.gap_seconds == 0.0 and trace.overlap_seconds == 0.0
    assert [t.as_dict() for t in replayed.stitched()] == [t.as_dict() for t in traces]
    report = diagnose(live.snapshot())
    assert report["root_cause"]["operator"] == "sink"
    assert report["root_cause"]["worker"] == "0"
    assert diagnose(replayed.snapshot())["breaches"] == report["breaches"]


# ---------------------------------------------------------------------------
# Absorb: any order, any repeats
# ---------------------------------------------------------------------------

_SPAN_POOL = [
    {"trace_id": t, "hop": h, "stage": stage, "operator": "op",
     "start": float(h), "end": h + 0.5}
    for t in (1, 2) for h in (0, 1) for stage in STAGES[:2]
]


@st.composite
def _one_workers_envelopes(draw):
    """1..5 envelopes of one worker in ``seq`` order — absolute series
    (a counter that only grows, a gauge that wanders), any spans — and
    an order to absorb them in: every one at least once, any repeated."""
    n = draw(st.integers(1, 5))
    total, envelopes = 0.0, []
    for seq in range(1, n + 1):
        total += draw(st.integers(0, 9))
        series = [
            {"name": "c_total", "kind": "counter", "labels": {"worker": "0"},
             "value": total},
            {"name": "g", "kind": "gauge", "labels": {"worker": "0"},
             "value": float(draw(st.integers(-5, 5)))},
        ]
        spans = draw(st.lists(st.sampled_from(_SPAN_POOL), max_size=6))
        envelopes.append(envelope(worker=0, seq=seq, series=series, spans=spans))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return envelopes, draw(st.permutations(list(range(n)) + repeats))


def _merged_state(collector):
    spans = sorted(
        (s.trace_id, s.hop, s.stage) for s in collector.observer.collector.all_spans()
    )
    return _registry_state(collector.observer.registry), spans


@settings(max_examples=60, deadline=None)
@given(_one_workers_envelopes())
def test_absorb_is_insensitive_to_order_and_repeats(case):
    envelopes, order = case
    in_order, shuffled = ClusterCollector(), ClusterCollector()
    for env in envelopes:
        assert in_order.absorb(env) is True
    for index in order:
        shuffled.absorb(envelopes[index])
    assert _merged_state(shuffled) == _merged_state(in_order)
    assert shuffled.absorbed + shuffled.stale == len(order)


# ---------------------------------------------------------------------------
# Doctor: cross-worker attribution
# ---------------------------------------------------------------------------

def test_doctor_attributes_breach_to_gate_on_other_worker():
    """Breach observed on worker 1, root cause the stalled sink gate on
    worker 2 (its throttle cascade reaches the breaching operator)."""
    timeline = [
        event(1.0, "flowcontrol", "gate_closed",
              operator="w2:sink[0]", throttles=["w1:relay[0]"], worker="2"),
        event(1.2, "flowcontrol", "gate_closed",
              operator="w1:relay[0]", throttles=["w0:src[0]"], worker="1"),
        event(2.0, "health", "slo_breach",
              slo="relay.p99_latency", operator="relay", worker="1",
              value=0.2, threshold=0.05),
        event(4.0, "health", "slo_recover", slo="relay.p99_latency"),
        event(5.0, "flowcontrol", "gate_opened", operator="w1:relay[0]"),
        event(5.1, "flowcontrol", "gate_opened", operator="w2:sink[0]"),
    ]
    report = diagnose(envelope(timeline))
    assert not report["healthy"]
    episode = report["breaches"][0]
    assert episode["observed_on_worker"] == "1"
    root = report["root_cause"]
    assert root["type"] == "backpressure_cascade"
    assert root["operator"] == "sink"
    assert root["worker"] == "2"
    # The relay gate is a cascade victim, demoted below the sink gate.
    ops = [c["operator"] for c in episode["causes"]]
    assert ops.index("sink") < ops.index("relay")
    rendered = render_report(report)
    assert "root cause" in rendered and "'sink'" in rendered
    assert "on worker 2" in rendered
