"""Tests for the standard operator library."""

import json
import time

import pytest

from repro.core import (
    FieldType,
    NeptuneConfig,
    NeptuneRuntime,
    PacketSchema,
    StreamProcessingGraph,
)
from repro.granules import FileDataset
from repro.workloads import CollectingSink, CountingSource, RELAY_SCHEMA
from repro.workloads.stdlib import (
    FilterProcessor,
    JsonLinesFileSource,
    MapProcessor,
    ThrottledSource,
    WindowedAggregateProcessor,
)

NUM = PacketSchema([("n", FieldType.INT64)])


def small_config(**kw):
    defaults = dict(buffer_capacity=1024, buffer_max_delay=0.004)
    defaults.update(kw)
    return NeptuneConfig(**defaults)


class TestMapFilter:
    def test_map_transforms(self):
        store = []
        g = StreamProcessingGraph("map", config=small_config())
        g.add_source("src", lambda: CountingSource(total=100))
        g.add_processor(
            "double",
            lambda: MapProcessor(NUM, lambda src, dst: dst.set("n", src["seq"] * 2)),
        )
        g.add_processor("sink", lambda: CollectingSink(store, field="n"))
        g.link("src", "double").link("double", "sink")
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=30)
        assert store == [2 * i for i in range(100)]

    def test_filter_drops(self):
        store = []
        fp = FilterProcessor(RELAY_SCHEMA, lambda p: p["seq"] % 3 == 0)
        g = StreamProcessingGraph("filter", config=small_config())
        g.add_source("src", lambda: CountingSource(total=99))
        g.add_processor("keep3", lambda: fp)
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "keep3").link("keep3", "sink")
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=30)
        assert store == list(range(0, 99, 3))
        assert fp.passed == 33
        assert fp.dropped == 66


class TestWindowedAggregate:
    OUT = PacketSchema([("key", FieldType.INT64), ("mean", FieldType.FLOAT64)])

    def make(self, emit_every=1):
        return WindowedAggregateProcessor(
            out_schema=self.OUT,
            key_field="seq",
            time_field="emitted_at",
            value_field="emitted_at",
            window_seconds=3600.0,
            aggregate=lambda vs: sum(vs) / len(vs),
            fill=lambda pkt, key, value: (pkt.set("key", key), pkt.set("mean", value)),
            emit_every=emit_every,
        )

    def test_emits_aggregate_per_packet(self):
        store = []

        class TimedSource(CountingSource):
            def generate(self, ctx):
                if self.emitted >= self.total:
                    ctx.finish()
                    return
                pkt = ctx.new_packet()
                pkt.set("seq", self.emitted % 2)  # two keys
                pkt.set("emitted_at", float(self.emitted))
                pkt.set("payload", b"")
                ctx.emit(pkt)
                self.emitted += 1

        g = StreamProcessingGraph("agg", config=small_config())
        g.add_source("src", lambda: TimedSource(total=20))
        g.add_processor("window", lambda: self.make())
        g.add_processor("sink", lambda: CollectingSink(store, field=None))
        g.link("src", "window", partitioning={"scheme": "fields", "fields": ["seq"]})
        g.link("window", "sink")
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=30)
        assert len(store) == 20
        # Windows are per key: the final aggregate for key 0 is the
        # mean of its own observations 0,2,...,18 = 9.0.
        finals = {p["key"]: p["mean"] for p in store}
        assert finals[0] == pytest.approx(9.0)
        assert finals[1] == pytest.approx(10.0)

    def test_emit_every_thins_output(self):
        proc = self.make(emit_every=5)

        class Ctx:
            emitted = []

            def new_packet(self, stream=None):
                from repro.core.packet import StreamPacket

                return StreamPacket(TestWindowedAggregate.OUT)

            def emit(self, pkt, stream=None):
                self.emitted.append(pkt)

        ctx = Ctx()
        pkt = RELAY_SCHEMA.new_packet(seq=1, emitted_at=0.0, payload=b"")
        for i in range(10):
            pkt.set("emitted_at", float(i))
            proc.process(pkt, ctx)
        assert len(ctx.emitted) == 2  # every 5th

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(emit_every=0)

    def test_checkpoint_roundtrip(self):
        proc = self.make()

        class Ctx:
            def new_packet(self, stream=None):
                from repro.core.packet import StreamPacket

                return StreamPacket(TestWindowedAggregate.OUT)

            def emit(self, pkt, stream=None):
                pass

        pkt = RELAY_SCHEMA.new_packet(seq=7, emitted_at=5.0, payload=b"")
        proc.process(pkt, Ctx())
        state = proc.snapshot_state()
        fresh = self.make()
        fresh.restore_state(state)
        assert list(fresh._windows[7].values()) == [5.0]


class TestThrottledSource:
    def test_paces_emission(self):
        store = []
        inner = CountingSource(total=None)
        g = StreamProcessingGraph("paced", config=small_config())
        g.add_source("src", lambda: ThrottledSource(inner, rate=200.0))
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            time.sleep(1.0)
            h.stop(timeout=30)
        # ~200/s for ~1s; generous bounds for CI noise.
        assert 60 <= len(store) <= 420

    def test_passthrough_schema_and_finish(self):
        store = []
        g = StreamProcessingGraph("paced2", config=small_config())
        g.add_source("src", lambda: ThrottledSource(CountingSource(total=30), rate=10_000))
        g.add_processor("sink", lambda: CollectingSink(store))
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=30)
        assert store == list(range(30))


class TestFileDataset:
    def test_lines_iteration(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("one\ntwo\nthree\n")
        ds = FileDataset("f", str(path))
        assert ds.has_data()
        assert ds.next() == b"one\n"
        assert ds.next() == b"two\n"
        assert ds.tell() == 8
        assert ds.next() == b"three\n"
        assert not ds.has_data()
        ds.close()

    def test_seek_replays(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("aa\nbb\ncc\n")
        ds = FileDataset("f", str(path))
        ds.next()
        pos = ds.tell()
        ds.next()
        ds.seek(pos)
        assert ds.next() == b"bb\n"
        ds.close()

    def test_tell_accounts_for_peek(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("xx\nyy\n")
        ds = FileDataset("f", str(path))
        assert ds.has_data()  # peeks "xx\n"
        assert ds.tell() == 0  # but position reflects the unread record
        ds.close()

    def test_bytes_mode(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(range(100)))
        ds = FileDataset("f", str(path), mode="bytes")
        chunk = ds.next(block_size=64)
        assert len(chunk) == 64
        ds.close()

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            FileDataset("f", "x", mode="pages")


class TestJsonLinesFileSource:
    def _write(self, tmp_path, rows):
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return str(path)

    def test_replay_file(self, tmp_path):
        rows = [{"n": i} for i in range(50)]
        path = self._write(tmp_path, rows)
        store = []
        g = StreamProcessingGraph("jsonl", config=small_config())
        g.add_source("src", lambda: JsonLinesFileSource(path, NUM))
        g.add_processor("sink", lambda: CollectingSink(store, field="n"))
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            assert rt.submit(g).await_completion(timeout=30)
        assert store == list(range(50))

    def test_checkpoint_resumes_position(self, tmp_path):
        rows = [{"n": i} for i in range(40)]
        path = self._write(tmp_path, rows)
        store = []
        sources = []

        def graph():
            g = StreamProcessingGraph("jsonl-ckpt", config=small_config())

            def make():
                src = JsonLinesFileSource(path, NUM)
                sources.append(src)
                return src

            g.add_source("src", make)
            g.add_processor("sink", lambda: CollectingSink(store, field="n"))
            g.link("src", "sink")
            return g

        with NeptuneRuntime() as rt:
            h = rt.submit(graph())
            assert h.await_completion(timeout=30)
            ckpt = h.checkpoint()
        assert len(store) == 40
        # Restore into a fresh job: position is at EOF → nothing replays.
        with NeptuneRuntime() as rt:
            h2 = rt.submit(graph(), restore_from=ckpt)
            assert h2.await_completion(timeout=30)
        assert len(store) == 40
