"""Tests for workload generators: IoT fleet, DEBS manufacturing, operators."""

import pytest

from repro.compression import shannon_entropy
from repro.core.serde import PacketCodec
from repro.workloads import RELAY_SCHEMA, CountingSource, ReplaySource
from repro.workloads.debs import (
    MANUFACTURING_SCHEMA,
    ManufacturingStream,
)
from repro.workloads.iot import SENSOR_SCHEMA, SensorFleet


class TestSensorFleet:
    def test_generates_requested_count(self):
        fleet = SensorFleet(n_sensors=4)
        pkts = list(fleet.packets(100))
        assert len(pkts) == 100
        assert all(p.schema == SENSOR_SCHEMA for p in pkts)
        assert all(p.is_complete() for p in pkts)

    def test_round_robin_sensor_ids(self):
        fleet = SensorFleet(n_sensors=3)
        ids = [p["sensor_id"] for p in fleet.packets(6)]
        assert ids == [f"sensor-{i:04d}" for i in (0, 1, 2, 0, 1, 2)]

    def test_timestamps_monotone_per_sensor(self):
        fleet = SensorFleet(n_sensors=2, period_ms=500)
        ts = [p["ts"] for p in fleet.packets(8) if p["sensor_id"] == "sensor-0000"]
        assert ts == sorted(ts)
        assert ts[1] - ts[0] == 500

    def test_small_packet_regime(self):
        """IoT packets should be in the paper's 50-400 B range."""
        fleet = SensorFleet()
        codec = PacketCodec(SENSOR_SCHEMA)
        sizes = [len(codec.encode(p)) for p in fleet.packets(20)]
        assert all(50 <= s <= 400 for s in sizes)

    def test_temperature_physically_plausible(self):
        fleet = SensorFleet(n_sensors=8)
        temps = [p["temperature"] for p in fleet.packets(500)]
        assert all(-10 < t < 40 for t in temps)

    def test_validation(self):
        with pytest.raises(ValueError):
            SensorFleet(n_sensors=0)
        with pytest.raises(ValueError):
            SensorFleet(period_ms=0)


class TestManufacturingStream:
    def test_66_fields(self):
        assert len(MANUFACTURING_SCHEMA) == 66

    def test_generates_complete_packets(self):
        stream = ManufacturingStream()
        pkts = list(stream.packets(50))
        assert len(pkts) == 50
        assert all(p.is_complete() for p in pkts)

    def test_low_entropy_serialized_stream(self):
        """§III-B5: 'sensor readings do not change frequently over time
        which results in a low entropy when consecutive stream packets
        are buffered together'."""
        stream = ManufacturingStream()
        body = stream.serialized_stream(500)
        assert shannon_entropy(body) < 6.0

    def test_compresses_much_better_than_random(self):
        import random

        from repro.compression import CompressionPolicy

        compress = CompressionPolicy(entropy_threshold=8.0, min_size=0).encode
        stream = ManufacturingStream()
        body = stream.serialized_stream(300)
        rng = random.Random(0)
        noise = bytes(rng.getrandbits(8) for _ in range(len(body)))
        assert len(compress(body)) < 0.35 * len(body)
        assert len(compress(noise)) > 0.95 * len(noise)

    def test_valve_actuates_after_sensor_change(self):
        stream = ManufacturingStream(state_change_prob=0.05, seed=3)
        list(stream.packets(2000))
        assert stream.actuation_log, "no state changes generated"
        for _sensor, change_ms, actuation_ms in stream.actuation_log:
            assert actuation_ms > change_ms
            delay = actuation_ms - change_ms
            assert 10 <= delay <= 60 + 1  # 40ms ± 50%

    def test_actuation_visible_in_stream(self):
        stream = ManufacturingStream(state_change_prob=0.05, seed=5)
        pkts = list(stream.packets(3000))
        # Find a logged actuation and confirm valve matches sensor after.
        sensor, change_ms, act_ms = stream.actuation_log[0]
        after = [p for p in pkts if p["ts"] > act_ms][:5]
        assert after
        for p in after[:1]:
            assert p[f"valve_{sensor + 1}"] == p[f"additive_sensor_{sensor + 1}"]

    def test_timestamps_sequential(self):
        stream = ManufacturingStream(period_ms=10)
        ts = [p["ts"] for p in stream.packets(10)]
        assert all(b - a == 10 for a, b in zip(ts, ts[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ManufacturingStream(period_ms=0)
        with pytest.raises(ValueError):
            ManufacturingStream(state_change_prob=1.5)


class TestReferenceOperators:
    def test_counting_source_payload_size(self):
        src = CountingSource(total=5, payload_size=128)
        codec = PacketCodec(RELAY_SCHEMA)

        class Ctx:
            def __init__(self):
                self.emitted = []

            def new_packet(self, stream=None):
                from repro.core.packet import StreamPacket

                return StreamPacket(RELAY_SCHEMA)

            def emit(self, pkt, stream=None):
                self.emitted.append(pkt)

            def finish(self):
                self.finished = True

        ctx = Ctx()
        for _ in range(6):
            src.generate(ctx)
        assert len(ctx.emitted) == 5
        assert getattr(ctx, "finished", False)
        assert len(ctx.emitted[0]["payload"]) == 128
        assert [p["seq"] for p in ctx.emitted] == list(range(5))
        assert len(codec.encode(ctx.emitted[0])) >= 128

    def test_replay_source_finishes(self):
        pkts = [RELAY_SCHEMA.new_packet(seq=i, emitted_at=0.0, payload=b"") for i in range(3)]
        src = ReplaySource(pkts, RELAY_SCHEMA)

        class Ctx:
            emitted = []

            def emit(self, pkt, stream=None):
                self.emitted.append(pkt)

            def finish(self):
                self.finished = True

        ctx = Ctx()
        for _ in range(4):
            src.generate(ctx)
        assert len(ctx.emitted) == 3
        assert getattr(ctx, "finished", False)


class TestBatchOverheadSink:
    def test_pays_per_batch_not_per_packet(self, monkeypatch):
        from repro.workloads import BatchOverheadSink

        sleeps = []
        sink = BatchOverheadSink(overhead=0.25)
        monkeypatch.setattr(
            "repro.workloads.operators.time.sleep", lambda s: sleeps.append(s)
        )
        pkt = RELAY_SCHEMA.new_packet(seq=0, emitted_at=0.0, payload=b"")
        # Two batches of very different sizes cost the same overhead.
        sink.on_batch_start(1, None)
        sink.process(pkt, None)
        sink.on_batch_start(500, None)
        for _ in range(3):
            sink.process(pkt, None)
        assert sleeps == [0.25, 0.25]
        assert sink.batches == 2
        assert sink.seen == 4

    def test_audit_file_records_selected_fields(self, tmp_path):
        from repro.workloads import BatchOverheadSink

        path = tmp_path / "audit.txt"
        sink = BatchOverheadSink(overhead=0.0, path=str(path), field="seq,emitted_at")
        for i in range(3):
            pkt = RELAY_SCHEMA.new_packet(seq=i, emitted_at=float(i), payload=b"")
            sink.process(pkt, None)
        assert path.read_text().splitlines() == [
            "0,0.0",
            "1,1.0",
            "2,2.0",
        ]
